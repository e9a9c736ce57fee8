"""Band structure of the periodic operator via the period transfer matrix.

The per-site transfer matrix T(n) = [[a(n), b(n)], [1, 0]] advances the state
(psi(n), psi(n-1)). One period of them, applied at sites n = 0..m-1,

    M(E) = T(m-1) ... T(1) T(0),

maps (psi(0), psi(-1)) to (psi(m), psi(m-1)). Its determinant telescopes to
exactly 1 and its trace D(E) = t11 + t22 encodes the spectrum: energies with
|D| < 2 belong to allowed zones (bounded, phase-rotating solutions), |D| > 2
to forbidden zones (one exponentially growing and one decaying solution),
and |D| = 2 marks zone edges.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    CoefficientTable,
    LatticeSpec,
    PeriodicPotential,
    validate_potential,
)
from .errors import (
    GridResolutionWarning,
    OutsideAllowedZoneError,
)

# |D| within this of 2 classifies as a zone edge.
TOL_EDGE = 1e-9
# Refined |D -+ 2| minima below this count as tangential (closed-gap) touches.
DEGENERATE_DISC_TOL = 1e-9
DEFAULT_GRID_POINTS = 2001
DEFAULT_ROOT_TOL = 1e-10


class SpectralClass(enum.Enum):
    ALLOWED = "Allowed"
    FORBIDDEN = "Forbidden"
    EDGE = "Edge"


@dataclass(frozen=True)
class Monodromy:
    """Period transfer matrix entries; disc is the trace t11 + t22.

    Entries are arrays for an array of energies, except t21 and t22 at m = 1.
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
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    for r in range(table.m):
        a, b = table.alpha(r, energy), table.beta[r]
        t11, t12, t21, t22 = (
            a * t11 + b * t21,
            a * t12 + b * t22,
            t11,
            t12,
        )
    return Monodromy(t11=t11, t12=t12, t21=t21, t22=t22)


def monodromy(pot: PeriodicPotential, lat: LatticeSpec, energy) -> Monodromy:
    """Product of the per-site transfer matrices over one period (sites 0..m-1).

    energy may be an array; each element equals the scalar call bit for bit.
    """
    return _period_map(validate_potential(pot, lat), energy)


def classify_energy(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    tol_edge: float = TOL_EDGE,
) -> ZoneClass:
    """Allowed / Forbidden / Edge according to |D| versus 2."""
    d = monodromy(pot, lat, energy).disc
    if abs(d) < 2.0 - tol_edge:
        kind = SpectralClass.ALLOWED
    elif abs(d) > 2.0 + tol_edge:
        kind = SpectralClass.FORBIDDEN
    else:
        kind = SpectralClass.EDGE
    return ZoneClass(kind=kind, disc=d)


def _bisect(f, lo, hi, f_lo, tol):
    """Root of f in [lo, hi] given a sign change, to width tol or float spacing."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _golden_min(f, lo, hi, tol):
    """Minimiser of a locally unimodal f on [lo, hi] to width tol or float spacing."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < b and a < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _scan_grid(e_lo, e_hi, grid_points):
    """Uniform grid of grid_points energies from e_lo to e_hi."""
    if not e_lo < e_hi:
        raise ValueError(f"empty scan range [{e_lo}, {e_hi}]")
    if grid_points < 16:
        raise ValueError(f"grid_points must be at least 16, got {grid_points}")
    step = (e_hi - e_lo) / (grid_points - 1)
    return [e_lo + i * step for i in range(grid_points)]


def _scan_roots(f, xs, fs, tol, found):
    """Sorted roots of f on the grid xs, where fs = f(xs); merged within 4 tol.

    Adds one bisected root per sign-changing grid cell to the roots found.
    """
    found = list(found)
    for i in range(len(xs) - 1):
        if fs[i] * fs[i + 1] < 0.0:
            found.append(_bisect(f, xs[i], xs[i + 1], fs[i], tol))
    found.sort()
    merged = []
    for root in found:
        if merged and root - merged[-1] < 4.0 * tol:
            continue
        merged.append(root)
    return merged


def _classify_zone(disc, lo, hi, tol_edge):
    """Zone class from probe points, stepping aside if a probe hits an edge."""
    width = hi - lo
    for frac in (0.5, 0.25, 0.75, 0.4, 0.6):
        d = disc(lo + frac * width)
        if abs(d) < 2.0 - tol_edge:
            return SpectralClass.ALLOWED
        if abs(d) > 2.0 + tol_edge:
            return SpectralClass.FORBIDDEN
    return SpectralClass.ALLOWED if abs(disc(lo + 0.5 * width)) <= 2.0 else SpectralClass.FORBIDDEN


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

    Crossings are bracketed on a uniform grid and bisected to width tol.
    Tangential touches (closed gaps) appear as grid-local minima of |D -+ 2|
    without a sign change; these are refined by golden-section search and
    reported separately as degenerate edges. A dip of D past a level and back
    inside a single grid cell is recovered the same way and triggers a
    GridResolutionWarning, as does a non-alternating zone pattern.
    """
    xs = _scan_grid(e_lo, e_hi, grid_points)
    table = validate_potential(pot, lat)

    def disc(energy):
        return _period_map(table, energy).disc

    ds = disc(np.array(xs)).tolist()

    roots = []
    degenerate = []
    for level in (2.0, -2.0):
        g = [d - level for d in ds]
        level_roots = []

        for i, gi in enumerate(g):
            if gi == 0.0:
                left_sign = g[i - 1] if i > 0 else 0.0
                right_sign = g[i + 1] if i < len(g) - 1 else 0.0
                if left_sign * right_sign > 0.0:
                    degenerate.append(BandEdge(energy=xs[i], level=level))
                else:
                    level_roots.append(xs[i])

        # Touches and sub-grid dips: strict local minima of |g| with no sign
        # change in the two adjacent cells.
        for i in range(1, len(g) - 1):
            gi = g[i]
            if gi == 0.0 or abs(gi) > 0.5:
                continue
            if abs(gi) > abs(g[i - 1]) or abs(gi) > abs(g[i + 1]):
                continue
            if g[i - 1] * gi <= 0.0 or gi * g[i + 1] <= 0.0:
                continue
            sgn = 1.0 if gi > 0.0 else -1.0
            xm, qm = _golden_min(
                lambda x: sgn * (disc(x) - level), xs[i - 1], xs[i + 1], tol
            )
            if qm < 0.0:
                warnings.warn(
                    f"two D = {level:+g} edges inside one grid cell near E = {xm:.6g}; "
                    "consider a finer grid",
                    GridResolutionWarning,
                    stacklevel=2,
                )
                f_left = sgn * g[i - 1]
                level_roots.append(
                    _bisect(lambda x: sgn * (disc(x) - level), xs[i - 1], xm, f_left, tol)
                )
                level_roots.append(
                    _bisect(lambda x: sgn * (disc(x) - level), xm, xs[i + 1], qm, tol)
                )
            elif qm <= DEGENERATE_DISC_TOL:
                degenerate.append(BandEdge(energy=xm, level=level))

        merged = _scan_roots(lambda x: disc(x) - level, xs, g, tol, level_roots)
        roots.extend(BandEdge(energy=r, level=level) for r in merged)

    roots.sort(key=lambda e: e.energy)
    degenerate.sort(key=lambda e: e.energy)

    points = [e_lo] + [e.energy for e in roots] + [e_hi]
    zones = []
    for lo, hi in zip(points[:-1], points[1:]):
        if hi - lo <= 0.0:
            continue
        zones.append(Zone(lo=lo, hi=hi, kind=_classify_zone(disc, lo, hi, tol_edge)))
    for za, zb in zip(zones[:-1], zones[1:]):
        if za.kind == zb.kind:
            warnings.warn(
                f"zones ({za.lo:.6g}, {za.hi:.6g}) and ({zb.lo:.6g}, {zb.hi:.6g}) share "
                f"class {za.kind.value}; an edge may have been missed by the grid",
                GridResolutionWarning,
                stacklevel=2,
            )
    return BandDiagram(
        e_lo=e_lo,
        e_hi=e_hi,
        edges=tuple(roots),
        degenerate_edges=tuple(degenerate),
        zones=tuple(zones),
    )


def diagram_from_edges(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    e_lo: float,
    e_hi: float,
    edge_energies,
    tol_edge: float = TOL_EDGE,
) -> BandDiagram:
    """Build a diagram from externally supplied edge energies.

    Zones between consecutive claimed edges get the class of the discriminant
    at probe points inside them. Meant for feeding claimed (possibly wrong)
    edges to the counting oracle.
    """
    energies = sorted(float(e) for e in edge_energies)
    if any(not e_lo < e < e_hi for e in energies):
        raise ValueError("claimed edges must lie strictly inside the scan range")
    table = validate_potential(pot, lat)

    def disc(energy):
        return _period_map(table, energy).disc

    points = [e_lo] + energies + [e_hi]
    zones = tuple(
        Zone(lo=lo, hi=hi, kind=_classify_zone(disc, lo, hi, tol_edge))
        for lo, hi in zip(points[:-1], points[1:])
    )
    edges = tuple(
        BandEdge(energy=e, level=2.0 if disc(e) > 0 else -2.0) for e in energies
    )
    return BandDiagram(
        e_lo=e_lo, e_hi=e_hi, edges=edges, degenerate_edges=(), zones=zones
    )


def _eigvec(mono: Monodromy, lam):
    """Eigenvector of the 2x2 monodromy for eigenvalue lam, as state (psi0, psi-1)."""
    r1 = (mono.t12, lam - mono.t11)
    r2 = (lam - mono.t22, mono.t21)
    n1 = abs(r1[0]) ** 2 + abs(r1[1]) ** 2
    n2 = abs(r2[0]) ** 2 + abs(r2[1]) ** 2
    vec = r1 if n1 >= n2 else r2
    norm = math.sqrt(abs(vec[0]) ** 2 + abs(vec[1]) ** 2)
    return (vec[0] / norm, vec[1] / norm)


def _advance(table, energy, state):
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
    mono = _period_map(table, energy)
    d = mono.disc
    if abs(abs(d) - 2.0) <= tol_edge:
        lam = d / 2.0
        vec = _eigvec(mono, lam)
        direction = _advance(table, energy, vec)
        return FloquetPair(
            lambda_plus=lam,
            lambda_minus=lam,
            dir_plus=direction,
            dir_minus=direction,
            kappa_site=0.0,
            degenerate=True,
        )
    if abs(d) > 2.0:
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
        dir_plus=_advance(table, energy, _eigvec(mono, lam_plus)),
        dir_minus=_advance(table, energy, _eigvec(mono, lam_minus)),
        kappa_site=kappa,
        degenerate=False,
    )


def bloch_phase(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    tol_edge: float = TOL_EDGE,
) -> float:
    """Per-period phase arccos(D/2) of allowed-zone solutions, in [0, pi]."""
    d = monodromy(pot, lat, energy).disc
    if abs(d) > 2.0 + tol_edge:
        raise OutsideAllowedZoneError(
            f"energy {energy} lies in a forbidden zone (D = {d:.6g})"
        )
    return math.acos(min(1.0, max(-1.0, d / 2.0)))


def dirichlet_spectrum(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    e_lo: float,
    e_hi: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
) -> list:
    """Energies where the monodromy entry t21 vanishes.

    These are the eigenvalues of the hard-wall well cut from a single period
    of the potential (the m-1 sites at phases 0..m-2 between two infinite
    walls). For m = 1 the entry is constant and the list is empty.
    """
    xs = _scan_grid(e_lo, e_hi, grid_points)
    if pot.m == 1:
        return []
    table = validate_potential(pot, lat)

    def f(energy):
        return _period_map(table, energy).t21

    fs = f(np.array(xs)).tolist()
    return _scan_roots(f, xs, fs, tol, [x for x, fx in zip(xs, fs) if fx == 0.0])
