"""Band structure of the periodic operator via the period transfer matrix.

The per-site transfer matrix T(n) = [[a(n), b(n)], [1, 0]] advances the state
(psi(n), psi(n-1)). One period of them, applied at sites n = 0..m-1,

    M(E) = T(m-1) ... T(1) T(0),

maps (psi(0), psi(-1)) to (psi(m), psi(m-1)). Its determinant telescopes to
exactly 1 and its trace D(E) = t11 + t22 encodes the spectrum: energies with
|D| < 2 belong to allowed zones (bounded, phase-rotating solutions), |D| > 2
to forbidden zones (one exponentially growing and one decaying solution),
and |D| = 2 marks zone edges.

The 2m zone edges are the eigenvalues of the m x m Bloch matrices at
theta = 0 (D = +2) and theta = pi (D = -2), and the m - 1 hard-wall levels,
where t21 vanishes, those of their leading (m-1)-site block. Each
eigenvalue only names a cell of a uniform energy grid; one batched
bisection of D -+ 2 or t21 in that cell gives the reported energy. The
eigenvalue also predicts the path of that bisection, so one period-map call
usually makes all of its steps, and the bits do not depend on the guess.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoefficientTable,
    LatticeSpec,
    PeriodicPotential,
    validate_potential,
)
from .errors import NumericalError, OutsideAllowedZoneError

# |D| within this of 2 classifies as a zone edge.
TOL_EDGE = 1e-9
DEFAULT_GRID_POINTS = 2001
DEFAULT_ROOT_TOL = 1e-10
# Elements of a (phases x 2 x energies) block of a in the stacked period map:
# its scratch memory stays bounded whatever the period and the lane count.
_BLOCK = 1 << 14
# Shortest period whose energy arrays take the stacked walk. Below it the
# walk's fixed set-up costs more than its fewer calls per site save: band
# scans at m = 3 and 4 took about 10% and 4% longer stacked, at m = 5 1% less.
_STACK_PERIOD = 5


class SpectralClass(enum.Enum):
    ALLOWED = "Allowed"
    FORBIDDEN = "Forbidden"
    EDGE = "Edge"


# The members as globals: reading one off the enum class takes about 0.1 us,
# a few percent of a point query.
_ALLOWED, _FORBIDDEN, _EDGE = SpectralClass


@dataclass(frozen=True)
class Monodromy:
    """Period transfer matrix entries; disc is the trace t11 + t22.

    For a float energy the entries are floats. For an energy array they are
    arrays of its shape, except t21 and t22 at m = 1, which stay the floats
    1.0 and 0.0; a 0-d array gives numpy scalars.
    """

    t11: float
    t12: float
    t21: float
    t22: float

    @property
    def disc(self) -> float:
        return self.t11 + self.t22

    @property
    def det(self) -> float:
        return self.t11 * self.t22 - self.t12 * self.t21


@dataclass(frozen=True)
class ZoneClass:
    kind: SpectralClass
    disc: float


@dataclass(frozen=True)
class BandEdge:
    energy: float
    level: float  # which root: D = +2 or D = -2


@dataclass(frozen=True)
class Zone:
    lo: float
    hi: float
    kind: SpectralClass


@dataclass(frozen=True)
class BandDiagram:
    """Scan result: edge energies and the allowed/forbidden tiling between them."""

    e_lo: float
    e_hi: float
    edges: tuple  # BandEdge, sorted, zone boundaries only
    degenerate_edges: tuple  # BandEdge where |D| touches 2 without crossing
    zones: tuple  # Zone, tiling [e_lo, e_hi]

    def edge_energies(self) -> tuple:
        return tuple(e.energy for e in self.edges)

    def kind_at(self, energy: float) -> SpectralClass:
        """Class of the zone containing the given energy."""
        for z in self.zones:
            if z.lo <= energy <= z.hi:
                return z.kind
        raise ValueError(f"energy {energy} outside scan range [{self.e_lo}, {self.e_hi}]")


@dataclass(frozen=True)
class FloquetPair:
    """Multipliers lambda+- (roots of x^2 - D x + 1) and their directions.

    Directions are (psi(1), psi(0)) rays; propagating one of them reproduces
    psi(n+m) = lambda psi(n). kappa_site = ln(max |lambda|)/m is the per-site
    growth rate, zero inside allowed zones. On a zone edge the two multipliers
    and directions coincide and `degenerate` is set.
    """

    lambda_plus: complex
    lambda_minus: complex
    dir_plus: tuple
    dir_minus: tuple
    kappa_site: float
    degenerate: bool


def _period_map(table: CoefficientTable, energy) -> Monodromy:
    """Monodromy of one period, by the recurrence x(k+1) = a(k) x(k) + b(k) x(k-1).

    The state (1, 0) ends as (t11, t21), and (0, 1) as (t12, t22). Each step
    computes a * x + b * x_prev with a = (c - E) / h, the operations of
    table.alpha in the same order, so every lane of an energy array equals
    the scalar call bit for bit. A float, a 0-d array and any array at
    m < _STACK_PERIOD walk the two pairs as Python values. Longer periods
    walk an array as the two rows of one state block, three in-place numpy
    calls per site, with a computed for a block of phases at a time. That
    block holds at most _BLOCK elements, or one phase when the two state rows
    alone exceed it, so no scratch array grows with m times the lane count.
    """
    if isinstance(energy, float) or table.m < _STACK_PERIOD or np.ndim(energy) == 0:
        p, p_prev, q, q_prev = 1.0, 0.0, 0.0, 1.0
        for c, h, b in zip(table.c, table.h, table.beta):
            a = (c - energy) / h
            p, p_prev = a * p + b * p_prev, p
            q, q_prev = a * q + b * q_prev, q
        return Monodromy(t11=p, t12=q, t21=p_prev, t22=q_prev)
    # a is computed once per state row, so that a * state is not a broadcast
    twice = np.array((energy, energy), dtype=float)
    state = np.zeros((2,) + twice.shape)
    cur, prev = state[0], state[1]
    cur[0] = prev[1] = 1.0
    col = (-1,) + (1,) * twice.ndim
    c, h = np.array(table.c).reshape(col), np.array(table.h).reshape(col)
    rows = min(table.m, max(1, _BLOCK // max(1, twice.size)))
    block = np.empty((rows,) + twice.shape)
    for start in range(0, table.m, rows):
        alpha = block[: table.m - start]
        np.subtract(c[start : start + rows], twice, out=alpha)
        np.divide(alpha, h[start : start + rows], out=alpha)
        for a, b in zip(alpha, table.beta[start : start + rows]):
            np.multiply(b, prev, out=prev)
            np.multiply(a, cur, out=a)
            np.add(a, prev, out=prev)
            cur, prev = prev, cur
    return Monodromy(t11=cur[0], t12=cur[1], t21=prev[0], t22=prev[1])


def monodromy(pot: PeriodicPotential, lat: LatticeSpec, energy) -> Monodromy:
    """Product of the per-site transfer matrices over one period (sites 0..m-1).

    energy may be an array; each element equals the scalar call bit for bit.
    """
    return _period_map(validate_potential(pot, lat), energy)


def _zone_kind(d, tol_edge):
    """Allowed / Forbidden / Edge for a discriminant value d.

    The one test of |D| against 2 -+ tol_edge. NumericalError if d is not finite.
    """
    if abs(d) < 2.0 - tol_edge:
        return _ALLOWED
    if not math.isfinite(d):
        raise NumericalError(f"the period map overflows: D = {d} is not finite")
    if abs(d) > 2.0 + tol_edge:
        return _FORBIDDEN
    return _EDGE


def classify_energy(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    tol_edge: float = TOL_EDGE,
) -> ZoneClass:
    """Allowed / Forbidden / Edge according to |D| versus 2."""
    d = monodromy(pot, lat, energy).disc
    return ZoneClass(kind=_zone_kind(d, tol_edge), disc=d)


def _halve(lo, hi, tol):
    """Midpoints of brackets, and which of them a scalar bisection would take.

    A lane stops at width tol or at float spacing, where the midpoint is no
    longer strictly inside its bracket.
    """
    mid = 0.5 * (lo + hi)
    return mid, (hi - lo > tol) & (lo < mid) & (mid < hi)


def _bisect(value, lo, hi, f_lo, level, guess, tol):
    """Roots of value(E) - level, one per bracket [lo, hi] with a sign change.

    Each lane halves its bracket as a scalar bisection would: it stops on an
    exact zero, or at width tol or float spacing with the centre of its
    bracket. First each lane walks the path its bisection would take if its
    root lay at guess, and value is evaluated at every midpoint of every
    path in one call. A lane whose signs there steer it along its path is
    done. A lane whose sign sends it the other way at some step, or is an
    exact zero there, takes up its bisection from the bracket of that step;
    these lanes advance together with one call of value per step. value
    must treat each lane as a scalar call would, so the roots are the same
    bit for bit whatever the guesses.
    """
    lo, hi, level, guess = (np.array(x, dtype=float) for x in (lo, hi, level, guess))
    # f_lo only ever gives way to a value of its own sign, so that sign
    # steers every step
    neg = np.array(f_lo, dtype=float) < 0.0
    root = np.empty(len(lo))
    a, b, go, path = lo, hi, np.ones(len(lo), dtype=bool), []
    while go.any():
        mid, halves = _halve(a, b, tol)
        root[go & ~halves] = mid[go & ~halves]
        go = go & halves
        left = guess < mid
        path.append((a, b, mid, go, left))
        a, b = np.where(left, a, mid), np.where(left, mid, b)
    path_lo, path_hi, path_mid, stepping, path_left = (np.array(x) for x in zip(*path))
    steps, lanes = np.nonzero(stepping)
    f_mid = value(path_mid[steps, lanes]) - level[lanes]
    # where a lane's sign sends it off its path, or is an exact zero
    off = np.zeros(stepping.shape, dtype=bool)
    off[steps, lanes] = (path_left[steps, lanes] == ((f_mid < 0.0) == neg[lanes])) | (f_mid == 0.0)
    live = np.flatnonzero(off.any(axis=0))
    step = off.argmax(axis=0)[live]
    lo[live], hi[live] = path_lo[step, live], path_hi[step, live]
    while live.size:
        mid, go = _halve(lo[live], hi[live], tol)
        root[live[~go]] = mid[~go]
        live, mid = live[go], mid[go]
        f_mid = value(mid) - level[live]
        zero = f_mid == 0.0
        root[live[zero]] = mid[zero]
        left = neg[live] != (f_mid < 0.0)
        hi[live[left]] = mid[left]
        lo[live[~left]] = mid[~left]
        live = live[~zero]
    return root.tolist()


def _grid_step(e_lo, e_hi, grid_points):
    """Spacing of the scan grid e_lo + i * step, i = 0 .. grid_points - 1."""
    if not e_lo < e_hi:
        raise ValueError(f"empty scan range [{e_lo}, {e_hi}]")
    if grid_points < 16:
        raise ValueError(f"grid_points must be at least 16, got {grid_points}")
    return (e_hi - e_lo) / (grid_points - 1)


def _bloch_matrix(table, level):
    """Bloch matrix whose eigenvalues solve D(E) = level = 2 cos(theta).

    Diagonal c, off-diagonals -h and corner entries -h[m-1] cos(theta), for
    theta = 0 or pi. At m = 1 both corners land on the diagonal, giving
    c - 2 h cos(theta); at m = 2 they add onto the off-diagonal. The leading
    (m-1)-site block is the hard-wall well.
    """
    h = np.array(table.h)
    mat = np.diag(table.c) - np.diag(h[:-1], 1) - np.diag(h[:-1], -1)
    mat[0, -1] -= 0.5 * level * h[-1]
    mat[-1, 0] -= 0.5 * level * h[-1]
    return mat


def _roots(value, levels, e_lo, step, grid_points, tol):
    """Roots of value(E) = level on the scan grid, bracketed by eigenvalues.

    levels holds (level, eigenvalues) pairs. Each eigenvalue names its cell
    of the grid x_i = e_lo + i * step. value is sampled at both grid ends,
    at the ends of that cell and of its two neighbours, where rounding may
    have put the root, and midway between two eigenvalues sharing a cell. A
    sign change between samples less than two cells apart is a bracket. A
    zero on a grid point is a root, or a touch when both neighbours have one
    sign. Two eigenvalues in one cell with no sign change around their
    midpoint are a degenerate pair there. Touches and pairs stand for two
    eigenvalues each. NumericalError is raised unless these account for
    every eigenvalue within one cell of the grid and the sign of value
    holds between samples further apart, or if a sample less than two cells
    from another is not finite (the period map overflows, as for periods in
    the thousands; a lone sample at a far range end may overflow). The
    brackets of all levels are bisected together, each guessing its root at
    the eigenvalue that named its cell (where none lies inside the bracket,
    the nearest one clipped into it). Returns the roots and the degenerate
    roots on the grid, as sorted (energy, level) lists.
    """
    n = grid_points
    x_last = e_lo + (n - 1) * step
    brackets, roots, degenerate = [], [], []
    for level, eig in levels:
        lam = eig[(eig >= e_lo - step) & (eig < e_lo + n * step)]
        cell = np.clip(np.floor((lam - e_lo) / step).astype(int), -1, n - 1)
        grid = np.union1d(np.clip(cell[:, None] + np.arange(-1, 3), -1, n), [0, n - 1])
        pair = np.flatnonzero(cell[1:] == cell[:-1])
        # sorted; a midpoint on a grid point gives way to the grid point
        x, order = np.unique(
            np.concatenate([e_lo + grid * step, 0.5 * (lam[pair] + lam[pair + 1])]),
            return_index=True,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            g = value(x) - level
        near = np.diff(x) < 1.5 * step
        relied = ~np.isfinite(g) & (np.append(near, False) | np.insert(near, 0, False))
        if relied.any():
            raise NumericalError(
                f"the period map overflows near [{e_lo}, {x_last}]: the transfer-matrix "
                f"product is not finite at {np.count_nonzero(relied)} energies next to "
                f"its {len(lam)} eigenvalues for level {level:g}"
            )
        s = np.sign(g)
        on_grid = order < len(grid)
        cross = np.flatnonzero(near & (s[:-1] * s[1:] < 0.0))
        inner = np.arange(1, len(x) - 1)
        flat = near[:-1] & near[1:] & (s[:-2] * s[2:] > 0.0)
        at_zero = on_grid[1:-1] & (s[1:-1] == 0.0)
        zero, touch = inner[at_zero & ~flat], inner[at_zero & flat]
        double = inner[~on_grid[1:-1] & flat & (s[1:-1] * s[:-2] >= 0.0)]
        found = len(cross) + len(zero) + 2 * (len(touch) + len(double))
        if found != len(lam) or np.any(~near & (s[:-1] * s[1:] <= 0.0)):
            raise NumericalError(
                f"the {len(lam)} eigenvalues for level {level:g} near [{e_lo}, {x_last}] "
                f"do not match the {found} roots the scan sees there"
            )
        inside = (e_lo <= x) & (x <= x_last)
        # the first eigenvalue from a bracket's lower end on, clipped into the bracket
        near_eig = lam[np.minimum(np.searchsorted(lam, x[cross]), len(lam) - 1)]
        guess = np.clip(near_eig, x[cross], x[cross + 1]).tolist()
        x, g = x.tolist(), g.tolist()
        brackets += [
            (x[k], x[k + 1], g[k], level, e)
            for k, e in zip(cross, guess)
            if inside[k + 1] and inside[k]
        ]
        roots += [(x[k], level) for k in zero if inside[k]]
        degenerate += [(x[k], level) for k in np.append(touch, double) if inside[k]]
    if brackets:
        lo, hi, f_lo, level, guess = zip(*brackets)
        roots += zip(_bisect(value, lo, hi, f_lo, level, guess, tol), level)
    return sorted(roots), sorted(degenerate)


def _diagram(table, e_lo, e_hi, edges, degenerate):
    """BandDiagram from sorted (energy, level) edges and degenerate edges.

    Zones tile [e_lo, e_hi] between the edges; a repeated edge bounds no
    zone. A zone is Allowed where |D| <= 2 at its midpoint, else Forbidden,
    also where the period map overflows (far out in a gap, at periods in the
    hundreds).
    """
    bounds = [e_lo] + [energy for energy, _ in edges] + [e_hi]
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi - lo > 0.0]
    lo, hi = np.array(spans).T
    with np.errstate(over="ignore", invalid="ignore"):
        discs = _period_map(table, lo + 0.5 * (hi - lo)).disc.tolist()
    kinds = [_ALLOWED if abs(d) <= 2.0 else _FORBIDDEN for d in discs]
    return BandDiagram(
        e_lo=e_lo,
        e_hi=e_hi,
        edges=tuple(BandEdge(*edge) for edge in edges),
        degenerate_edges=tuple(BandEdge(*edge) for edge in degenerate),
        zones=tuple(Zone(lo=a, hi=b, kind=k) for (a, b), k in zip(spans, kinds)),
    )


def find_band_edges(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    e_lo: float,
    e_hi: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
    tol_edge: float = TOL_EDGE,
) -> BandDiagram:
    """Locate every solution of D(E) = +-2 in [e_lo, e_hi].

    The solutions of D(E) = 2 cos(theta) are the eigenvalues of the m x m
    Bloch matrix at theta (Teschl, Jacobi Operators and Completely
    Integrable Nonlinear Lattices, ch. 7): theta = 0 gives the D = +2 edges
    and theta = pi the D = -2 ones. Each eigenvalue names its cell on a
    uniform grid of grid_points energies, and D -+ 2 is bisected in that
    cell to width tol. The eigenvalue predicts the path of that bisection:
    one period-map call evaluates D at every midpoint of every predicted
    path, and later calls serve only brackets whose signs leave theirs. The
    refined bits depend neither on the rounding of the eigenvalues nor on
    the prediction. A closed gap, where D touches the level without
    crossing, is one degenerate edge that does not cut a zone. Zones are
    classed by |D| <= 2 at their midpoints. tol_edge does not affect the
    result. NumericalError means some eigenvalue matched no root, or the
    period map overflowed next to one.
    """
    step = _grid_step(e_lo, e_hi, grid_points)
    table = validate_potential(pot, lat)
    levels = [(level, np.linalg.eigvalsh(_bloch_matrix(table, level))) for level in (2.0, -2.0)]
    roots, degenerate = _roots(
        lambda energy: _period_map(table, energy).disc, levels, e_lo, step, grid_points, tol
    )
    return _diagram(table, e_lo, e_hi, roots, degenerate)


def diagram_from_edges(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    e_lo: float,
    e_hi: float,
    edge_energies,
) -> BandDiagram:
    """Build a diagram from externally supplied edge energies.

    Zones between consecutive distinct claimed edges are classed by |D| <= 2
    at their midpoints; a repeated edge is one boundary. Meant for feeding
    claimed (possibly wrong) edges to the counting oracle.
    """
    energies = sorted(float(e) for e in edge_energies)
    if not e_lo < e_hi or any(not e_lo < e < e_hi for e in energies):
        raise ValueError(f"claimed edges must lie strictly inside the scan range [{e_lo}, {e_hi}]")
    table = validate_potential(pot, lat)
    discs = _period_map(table, np.array(energies)).disc.tolist()
    edges = [(e, 2.0 if d > 0 else -2.0) for e, d in zip(energies, discs)]
    return _diagram(table, e_lo, e_hi, edges, [])


def _eigvec(mono: Monodromy, lam):
    """Eigenvector of the 2x2 monodromy for eigenvalue lam, as state (psi0, psi-1)."""
    r1 = (mono.t12, lam - mono.t11)
    r2 = (lam - mono.t22, mono.t21)
    n1 = abs(r1[0]) ** 2 + abs(r1[1]) ** 2
    n2 = abs(r2[0]) ** 2 + abs(r2[1]) ** 2
    vec = r1 if n1 >= n2 else r2
    norm = math.sqrt(abs(vec[0]) ** 2 + abs(vec[1]) ** 2)
    return (vec[0] / norm, vec[1] / norm)


def _step_direction(table, energy, state):
    """One forward step: (psi(0), psi(-1)) -> direction (psi(1), psi(0))."""
    psi1 = table.alpha(0, energy) * state[0] + table.beta[0] * state[1]
    norm = math.sqrt(abs(psi1) ** 2 + abs(state[0]) ** 2)
    d = (psi1 / norm, state[0] / norm)
    # Fix the ray representative deterministically.
    lead = d[0] if d[0] != 0 else d[1]
    ref = lead.real if isinstance(lead, complex) else lead
    if ref < 0:
        d = (-d[0], -d[1])
    return d


def floquet_multipliers(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    tol_edge: float = TOL_EDGE,
) -> FloquetPair:
    """Multipliers and eigen-directions of the period map at one energy."""
    table = validate_potential(pot, lat)
    return _multipliers(table, _period_map(table, energy), energy, tol_edge)


def _multipliers(table, mono, energy, tol_edge):
    d = mono.disc
    kind = _zone_kind(d, tol_edge)
    if kind is _EDGE:
        lam_plus = lam_minus = d / 2.0
        kappa = 0.0
    elif kind is _FORBIDDEN:
        # Real pair; get the large root first, the small one as its exact reciprocal.
        sq = math.sqrt(d * d - 4.0)
        big = (d + sq) / 2.0 if d > 0.0 else (d - sq) / 2.0
        small = 1.0 / big
        lam_plus, lam_minus = (big, small) if d > 0.0 else (small, big)
        kappa = math.log(abs(big)) / table.m
    else:
        sq = math.sqrt(4.0 - d * d)
        lam_plus = complex(d / 2.0, sq / 2.0)
        lam_minus = complex(d / 2.0, -sq / 2.0)
        kappa = 0.0
    return FloquetPair(
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        dir_plus=_step_direction(table, energy, _eigvec(mono, lam_plus)),
        dir_minus=_step_direction(table, energy, _eigvec(mono, lam_minus)),
        kappa_site=kappa,
        degenerate=kind is _EDGE,
    )


def bloch_phase(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    tol_edge: float = TOL_EDGE,
) -> float:
    """Per-period phase arccos(D/2) of allowed-zone solutions, in [0, pi]."""
    d = monodromy(pot, lat, energy).disc
    if _zone_kind(d, tol_edge) is _FORBIDDEN:
        raise OutsideAllowedZoneError(
            f"energy {energy} lies in a forbidden zone (D = {d:.6g})"
        )
    return _phase(d)


def _phase(d):
    """arccos(D/2) of a discriminant, with D/2 clamped into [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, d / 2.0)))


def dirichlet_spectrum(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    e_lo: float,
    e_hi: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
) -> list:
    """Energies in [e_lo, e_hi] where the monodromy entry t21 vanishes.

    These are the eigenvalues of the hard-wall well cut from a single period
    of the potential (the m-1 sites at phases 0..m-2 between two infinite
    walls), the leading block of the Bloch matrix. Each names its cell on the
    grid of grid_points energies, where t21 is bisected to width tol along
    the path the eigenvalue predicts, as for find_band_edges; a degenerate
    pair is listed twice. For m = 1 there is no such site and the list is
    empty.
    """
    step = _grid_step(e_lo, e_hi, grid_points)
    if pot.m == 1:
        return []
    table = validate_potential(pot, lat)
    levels = [(0.0, np.linalg.eigvalsh(_bloch_matrix(table, 2.0)[:-1, :-1]))]
    roots, degenerate = _roots(
        lambda energy: _period_map(table, energy).t21, levels, e_lo, step, grid_points, tol
    )
    return sorted([energy for energy, _ in roots + 2 * degenerate])
