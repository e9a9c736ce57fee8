"""Fundamental gap solutions and the structure that survives their growth.

A forbidden-zone energy carries two special solutions with psi(n+m) =
lambda psi(n) for the two real multipliers lambda of the period map. They are
not periodic, but everything that is insensitive to the overall factor per
period is: the interpolated zero (knot) positions, the projective angle of
neighbouring value pairs, and the effective local potential

    w(n) = v(n) + u(n) psi(n+1)/psi(n) + u(n-1) psi(n-1)/psi(n)

obtained by folding the nonlocal couplings onto the diagonal along a given
solution. This module builds those solutions and measures how periodic each
of these quantities actually is, plus two band-side diagnostics: the beat
length of near-edge envelopes and a sweep over boundary directions that
exposes the unique decaying one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import (
    TOL_EDGE,
    SpectralClass,
    _multipliers,
    _period_map,
    _phase,
    _zone_kind,
    classify_energy,
)
from .core import (
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    SolutionTrace,
    _walk_lanes,
    validate_potential,
)
from .errors import (
    DegenerateEdgeError,
    InsufficientDataError,
    NotForbiddenError,
    OutsideAllowedZoneError,
)

# Sites with |psi| below this fraction of their period's maximum have no
# trustworthy neighbour ratios.
UNDEFINED_RATIO_FRACTION = 1e-12
# Knot windows are offset by this much when counting knots per period, so a
# knot sitting exactly on a window boundary lands on one side only.
_KNOT_WINDOW_PAD = 1e-6
# Fewest boundary directions ic_sweep scores.
MIN_ANGLES = 8


@dataclass(frozen=True)
class KnotList:
    """Interpolated zero positions of a trace, strictly increasing."""

    positions: tuple

    def __post_init__(self):
        for a, b in zip(self.positions[:-1], self.positions[1:]):
            if not b > a:
                raise ValueError("knot positions must be strictly increasing")


@dataclass(frozen=True)
class EffectivePotentialProfile:
    """Per-site folded potential w(n) with a validity flag per site.

    Arrays are aligned with trace sites; the two boundary sites and any site
    whose |psi| is negligible within its period are flagged undefined.
    """

    w: np.ndarray
    defined: np.ndarray
    period: int

    def __post_init__(self):
        self.w.flags.writeable = False
        self.defined.flags.writeable = False


@dataclass(frozen=True)
class BeatEstimate:
    """Envelope minima and the measured/predicted beat length in site units."""

    minima_positions: tuple
    l_est: float
    l_pred: float


@dataclass(frozen=True)
class SweepResult:
    """Per-site log growth for each boundary angle, and the minimising angle."""

    alphas: tuple
    growths: tuple
    alpha_star: float


def select_branch(pair, branch: str):
    """Resolve a branch name to (multiplier, direction).

    "plus"/"minus" follow the sign in the quadratic formula for the period
    map's eigenvalues; "growing"/"decaying" pick by |lambda|.
    """
    if branch == "plus":
        return pair.lambda_plus, pair.dir_plus
    if branch == "minus":
        return pair.lambda_minus, pair.dir_minus
    if branch in ("growing", "decaying"):
        grow_is_plus = abs(pair.lambda_plus) > abs(pair.lambda_minus)
        pick_plus = grow_is_plus == (branch == "growing")
        if pick_plus:
            return pair.lambda_plus, pair.dir_plus
        return pair.lambda_minus, pair.dir_minus
    raise ValueError(f"unknown branch {branch!r}")


def floquet_solution(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    branch: str,
    n_sites: int,
    tol_edge: float = TOL_EDGE,
) -> SolutionTrace:
    """Trace of the fundamental solution for one multiplier branch.

    branch selects the root of x^2 - D x + 1: "plus"/"minus" by the sign in
    the quadratic formula, or "growing"/"decaying" by |lambda|. One period is
    propagated from the eigen-direction of the period map, forward for
    |lambda| >= 1 and backward from the next period for |lambda| < 1 (the
    direction in which each branch grows), and extended by
    psi(n+m) = lambda psi(n), which keeps the multiplier relation exact over
    arbitrarily many periods (forward recursion alone would lose the decaying
    branch to rounding within a few periods). An energy with |D| within
    tol_edge of 2 is an edge, as in classify_energy, and raises
    DegenerateEdgeError.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be at least 2, got {n_sites}")
    return _fundamental(validate_potential(pot, lat), energy, branch, n_sites, tol_edge)[0]


def _fundamental(table, energy, branch, n_sites, tol_edge):
    """floquet_solution from the coefficient table: (trace, lambda, kappa_site)."""
    mono = _period_map(table, energy)
    kind = _zone_kind(mono.disc, tol_edge)
    if kind == SpectralClass.EDGE:
        raise DegenerateEdgeError(
            f"multipliers coincide at energy {energy} (D = {mono.disc:.6g})"
        )
    if kind == SpectralClass.ALLOWED:
        raise NotForbiddenError(
            f"energy {energy} lies in an allowed zone (D = {mono.disc:.6g}); "
            "fundamental gap solutions need |D| > 2"
        )
    pair = _multipliers(table, mono, energy, tol_edge)
    lam, direction = select_branch(pair, branch)
    lam = float(lam.real) if isinstance(lam, complex) else float(lam)

    m = table.m
    base = np.empty(m + 2)
    if abs(lam) >= 1.0:
        base[:2] = direction[1], direction[0]  # psi(0), psi(1)
        for n in range(1, m):
            base[n + 1] = table.alpha(n, energy) * base[n] + table.beta[n] * base[n - 1]
    else:
        # The decaying solution grows towards lower sites, so the period is
        # filled backward from psi(m) = lambda psi(0), psi(m+1) = lambda psi(1).
        base[m:] = lam * direction[1], lam * direction[0]
        for n in range(m, 1, -1):
            r = n % m
            base[n - 1] = (base[n + 1] - table.alpha(r, energy) * base[n]) / table.beta[r]
        base[0] = direction[1]
    base = base[:m] / np.max(np.abs(base[:m]))

    log_lam = math.log(abs(lam))
    sign_lam = 1.0 if lam > 0.0 else -1.0
    q, r = np.divmod(np.arange(n_sites + 1), m)
    s = base[r] * sign_lam**q
    ell = q * log_lam
    trace = SolutionTrace(
        energy=energy,
        ic=InitialCondition(s[0], s[1] * math.exp(ell[1] - ell[0])),
        n_sites=n_sites,
        s=s,
        ell=ell,
    )
    return trace, lam, pair.kappa_site


def knots(trace: SolutionTrace) -> KnotList:
    """Zeros of the piecewise-linear interpolant through the samples.

    A sign change between sites n and n+1 contributes
    x = n + psi(n) / (psi(n) - psi(n+1)); an exact zero contributes its site.
    """
    _, above = trace.neighbours()
    a = trace.s[:-1]
    hit = np.flatnonzero((a == 0.0) | (a * above < 0.0))
    a, b = a[hit], above[hit]
    with np.errstate(divide="ignore", invalid="ignore"):
        positions = np.where(a == 0.0, hit, hit + a / (a - b)).tolist()
    if trace.s[trace.n_sites] == 0.0:
        positions.append(float(trace.n_sites))
    return KnotList(positions=tuple(positions))


def knot_periodicity_residual(knot_list: KnotList, m: int) -> float:
    """Worst deviation of matched knots from exact repetition with period m.

    Knots are grouped into length-m windows anchored just below the first
    knot; if the windows do not all hold the same number of knots the pattern
    is aperiodic and +inf is returned.
    """
    xs = np.array(knot_list.positions, dtype=float)
    if len(xs) == 0:
        return 0.0
    anchor = xs[0] - _KNOT_WINDOW_PAD
    span = xs[-1] - anchor
    n_windows = int(span // m)
    if n_windows < 1:
        return math.inf
    window = ((xs - anchor) // m).astype(int)
    counts = np.bincount(window[window < n_windows], minlength=n_windows)
    k = int(counts[0])
    if np.any(counts != k) or k == 0 or len(xs) <= k:
        return math.inf
    return float(np.max(np.abs(xs[k:] - xs[:-k] - m)))


def ratio_sequence(trace: SolutionTrace) -> np.ndarray:
    """Projective angle atan2(psi(n+1), psi(n)) mod pi per site.

    Working with angles instead of raw quotients keeps knots (where a raw
    ratio blows up) harmless.
    """
    _, above = trace.neighbours()
    return np.arctan2(above, trace.s[:-1]) % math.pi


def ratio_periodicity_residual(trace: SolutionTrace, m: int) -> float:
    """Worst circular mismatch between angles m sites apart."""
    phis = ratio_sequence(trace)
    if len(phis) <= m:
        raise InsufficientDataError("trace shorter than one period of ratios")
    d = np.abs(phis[m:] - phis[:-m]) % math.pi
    return float(np.max(np.minimum(d, math.pi - d)))


def effective_potential(
    trace: SolutionTrace, pot: PeriodicPotential, lat: LatticeSpec
) -> EffectivePotentialProfile:
    """Fold the nonlocal couplings onto the diagonal along the given trace.

    w(n) = v(n) + u(n) psi(n+1)/psi(n) + u(n-1) psi(n-1)/psi(n). Sites where
    |psi(n)| is below 1e-12 of the maximum over the containing period are
    flagged undefined instead of producing huge ratios.
    """
    validate_potential(pot, lat)
    return _fold(trace, pot)


def _fold(trace, pot):
    """effective_potential for a potential already validated."""
    m = pot.m
    la = trace.log_abs()
    site = np.arange(len(la))
    period_max = np.maximum.reduceat(la, site[::m])[site // m]
    defined = la > period_max + math.log(UNDEFINED_RATIO_FRACTION)
    defined[[0, -1]] = False

    below, above = trace.neighbours()
    n = np.flatnonzero(defined)
    psi = trace.s[n]
    v, u = np.array(pot.v), np.array(pot.u)
    w = np.zeros(len(la))
    w[n] = v[n % m] + u[n % m] * (above[n] / psi) + u[(n - 1) % m] * (below[n - 1] / psi)
    return EffectivePotentialProfile(w=w, defined=defined, period=m)


def effective_consistency_residual(
    profile: EffectivePotentialProfile, trace: SolutionTrace, lat: LatticeSpec
) -> float:
    """Check -(psi(n+1) - 2 psi(n) + psi(n-1))/d^2 = (E - w(n)) psi(n).

    Returns the worst relative mismatch over defined sites, evaluated in a
    common scale per site triple.
    """
    below, above = trace.neighbours()
    p1, p2, p3 = below[:-1], trace.s[1:-1], above[1:]
    lhs = -(p3 - 2.0 * p2 + p1) * lat.inv_step_sq
    rhs = (trace.energy - profile.w[1:-1]) * p2
    denom = np.maximum(np.abs(lhs), np.abs(rhs))
    keep = profile.defined[1:-1] & (denom > 0.0)
    return float(np.max(np.abs(lhs - rhs)[keep] / denom[keep], initial=0.0))


def effective_potential_periodicity_residual(
    profile: EffectivePotentialProfile, m: int
) -> float:
    """Worst |w(n+m) - w(n)| over site pairs that are both defined."""
    both = profile.defined[:-m] & profile.defined[m:]
    pairs = int(np.sum(both))
    if pairs < m:
        raise InsufficientDataError(
            f"need at least {m} defined pairs a period apart, have {pairs}"
        )
    return float(np.max(np.abs(profile.w[m:][both] - profile.w[:-m][both])))


def envelope(trace: SolutionTrace, period: int):
    """Blockwise log-envelope of |psi|.

    The trace is chopped into windows of max(period, 2) sites; each window
    contributes its maximum log |psi| at the window centre. Two sites minimum
    keeps site-alternating patterns (period-2 oscillation on a one-site
    potential) from masquerading as structure.
    """
    w = max(period, 2)
    la = trace.log_abs()
    k = len(la) // w
    return np.arange(k) * w + 0.5 * (w - 1), la[: k * w].reshape(k, w).max(axis=1)


def tail_growth_rate(
    trace: SolutionTrace, period: int, window_fraction: float = 0.5
) -> float:
    """Least-squares slope of the log-envelope over the trace tail.

    The tail (final window_fraction of the sites) excludes the transient in
    which a generic boundary condition still remembers its decaying
    component, so in a gap this converges to the per-site growth rate.
    """
    positions, values = envelope(trace, period)
    cut = trace.n_sites * (1.0 - window_fraction)
    mask = positions >= cut
    if int(np.sum(mask)) < 2:
        raise InsufficientDataError("tail too short for a growth estimate")
    x = positions[mask]
    y = values[mask]
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def mean_growth_rate(trace: SolutionTrace, period: int) -> float:
    """Per-site log growth from the first envelope window to the last.

    Unlike the tail slope this keeps the intercept: a boundary direction that
    spends its opening sites decaying scores visibly lower even after the
    growing component has taken over, which is what lets a sweep single out
    the decaying direction on a finite angle grid.
    """
    positions, values = envelope(trace, period)
    if len(values) < 2:
        raise InsufficientDataError("trace too short for a growth estimate")
    return float((values[-1] - values[0]) / (positions[-1] - positions[0]))


def ic_sweep(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    angle_count: int = 180,
    n_sites: int = 400,
) -> SweepResult:
    """Propagate every boundary direction (cos a, sin a) and score its growth.

    Angle a_j = j pi / angle_count scores mean_growth_rate(propagate(pot,
    lat, energy, (cos a_j, sin a_j), n_sites), m), bit for bit. All angles
    walk together, one lane each, and only the two envelope windows that
    mean_growth_rate reads are kept, so memory does not grow with n_sites.
    Once every lane has locked onto a cycle, the walk jumps whole cycles of
    all lanes at once towards the last window.
    A trace too short for two windows (n_sites < 2 max(m, 2) - 1) raises
    InsufficientDataError before any walking.

    The returned alpha_star is the angle of least growth; in a forbidden zone
    it matches the decaying eigen-direction of the period map to within the
    grid spacing pi/angle_count.
    """
    if angle_count < MIN_ANGLES:
        raise ValueError(f"angle_count must be at least {MIN_ANGLES}, got {angle_count}")
    w = max(pot.m, 2)
    k = (n_sites + 1) // w
    if k < 2:
        raise InsufficientDataError("trace too short for a growth estimate")
    alphas = [j * math.pi / angle_count for j in range(angle_count)]
    s, ell = _walk_lanes(
        pot, lat, energy, [math.cos(a) for a in alphas], [math.sin(a) for a in alphas],
        n_sites, w, (k - 1) * w,
    )
    # envelope's window maxima and mean_growth_rate's slope between the
    # centres of the first and last window, lane by lane
    with np.errstate(divide="ignore"):
        head, tail = (np.log(np.abs(s)) + ell).max(axis=1)
    centre = 0.5 * (w - 1)
    growths = ((tail - head) / (((k - 1) * w + centre) - centre)).tolist()
    best = int(np.argmin(growths))
    return SweepResult(alphas=tuple(alphas), growths=tuple(growths), alpha_star=alphas[best])


def beat_estimate(
    trace: SolutionTrace,
    pot: PeriodicPotential,
    lat: LatticeSpec,
    tol_edge: float = TOL_EDGE,
) -> BeatEstimate:
    """Measure the envelope beat length of an allowed-zone trace.

    Envelope minima are strict local minima over three consecutive windows;
    their mean spacing is compared against pi*m/min(theta, pi - theta) from
    the per-period phase theta, the modulation wavelength of a solution one
    phase-detuning away from the nearest zone edge. The energy must classify
    as Allowed under tol_edge.
    """
    zc = classify_energy(pot, lat, trace.energy, tol_edge)
    if zc.kind != SpectralClass.ALLOWED:
        raise OutsideAllowedZoneError(
            f"beats are an allowed-zone feature; energy {trace.energy} classifies "
            f"as {zc.kind.value}"
        )
    positions, values = envelope(trace, pot.m)
    minima = [
        float(positions[p])
        for p in range(1, len(values) - 1)
        if values[p] < values[p - 1] and values[p] < values[p + 1]
    ]
    if len(minima) < 2:
        if len(values) >= 2 and float(np.ptp(values)) < 1e-12:
            raise InsufficientDataError(
                "flat envelope: no beating at this energy"
            )
        raise InsufficientDataError(
            f"found {len(minima)} envelope minima; need at least 2"
        )
    gaps = np.diff(minima)
    # the one period map of classify_energy gives the phase too
    theta = _phase(zc.disc)
    delta = min(theta, math.pi - theta)
    return BeatEstimate(
        minima_positions=tuple(minima),
        l_est=float(np.mean(gaps)),
        l_pred=math.pi * pot.m / delta,
    )
