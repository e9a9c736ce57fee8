"""Eigenvalue-counting cross-check for band diagrams.

A hard-wall truncation of the periodic operator is a real symmetric
tridiagonal matrix: diagonal 2/d^2 + v(n), first off-diagonals u(n) - 1/d^2.
The number of eigenvalues below E equals the number of negative pivots in the
LDL^T factorisation of J - E I, a single scalar recurrence per site (the
Sturm count of Barth, Martin & Wilkinson, Numer. Math. 9, 1967), run for all
probe energies together over chunks of sites (see _counts_batch). The
pivots of a leading block are the first pivots of the whole chain, so one
pass over a chain of n2 = 2000 m sites also gives the counts of its leading
n1 = 1000 m sites. Between two energies inside a band the count grows by one
state per added period; inside a gap it stays at the handful of wall-bound
states a truncation can pin there, whatever the length (gap labelling). Every
zone of a diagram is probed this way and judged Band or Gap.

The verdicts come from pivot counts alone. Two things are shared with the
transfer-matrix path: the chain's entries are read from the same memoised
CoefficientTable (c on the diagonal, -h beside it), and cross_validate places
its cuts between segments at edges recomputed by find_band_edges (period map
and Bloch eigenvalues). A recomputed edge only decides where a segment ends,
never its verdict, but a wrong claimed edge that a wrong recomputed edge
matches to within _MERGE_DISTANCE leaves no segment to contradict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import (
    DEFAULT_GRID_POINTS,
    DEFAULT_ROOT_TOL,
    BandDiagram,
    SpectralClass,
    find_band_edges,
)
from .core import HOPPING_EPSILON, LatticeSpec, PeriodicPotential, validate_potential
from .errors import ValidationMismatchError

# Zero pivots are nudged to this (negative) value and counted as negative.
_PIVOT_TINY = 1e-300
# Sites per chunk of the pivot walk; a chunk's pivots (sites x probes) stay in cache.
_CHUNK = 64
# Wall-bound states allowed inside a gap: at most one per wall.
MAX_EDGE_STATES = 2
DEFAULT_MARGIN = 0.05
# Recomputed edges closer than this to a diagram boundary do not cut its zone.
_MERGE_DISTANCE = 1e-6


@dataclass(frozen=True)
class FiniteOperator:
    """Hard-wall chain: diagonal entries and couplings between neighbours."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if len(self.off) != len(self.diag) - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")
        if np.any(np.abs(self.off) < HOPPING_EPSILON):
            raise ValueError("degenerate coupling in finite operator")
        self.diag.flags.writeable = False
        self.off.flags.writeable = False

    @property
    def n_sites(self) -> int:
        return len(self.diag)

    @classmethod
    def from_potential(
        cls, pot: PeriodicPotential, lat: LatticeSpec, n_sites: int
    ) -> "FiniteOperator":
        table = validate_potential(pot, lat)
        reps = n_sites // pot.m + 1
        diag = np.tile(table.c, reps)[:n_sites]
        off = -np.tile(table.h, reps)[: n_sites - 1]
        return cls(diag=diag, off=off)


@dataclass(frozen=True)
class ValidationCheck:
    lo: float
    hi: float
    expected: str
    verdict: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _pivots(rows, d, couplings, buf, nudge):
    """Overwrite rows (diag - E, one site each) with the pivots that follow d.

    Two in-place calls per site; with nudge, zero pivots become -_PIVOT_TINY.
    Returns the last pivot.
    """
    for row, c in zip(rows, couplings):
        np.divide(c, d, out=buf)
        np.subtract(row, buf, out=row)
        if nudge:
            row[row == 0.0] = -_PIVOT_TINY
        d = row
    return d


def _counts_batch(op: FiniteOperator, energies, prefix: int | None = None):
    """Negative-pivot counts of J - E I for several energies at once.

    Returns (counts of the leading prefix sites, counts of the whole chain);
    prefix defaults to the whole chain. Sites are walked in chunks of _CHUNK,
    also cut at prefix. A chunk's rows diag - E are built in one call and
    overwritten by the pivots d_i = (diag_i - E) - off_{i-1}^2 / d_{i-1} (site
    0 follows a virtual pivot inf with coupling 0), and its negatives are
    counted once. A zero pivot (0.0 or -0.0) is nudged to -_PIVOT_TINY and
    counted as negative. Each chunk runs first without the nudge; up to its
    first zero that run is exact, so only a chunk holding a zero is replayed,
    from its starting pivot with the nudge on. Every lane's arithmetic is
    that of the plain site-by-site loop, bit for bit.
    """
    energies = np.asarray(energies, dtype=float)
    lanes = energies.ravel()
    n = op.n_sites
    off_sq = np.zeros(n)
    np.square(op.off, out=off_sq[1:])
    counts = np.zeros(lanes.shape, dtype=int)
    head = None
    d, buf = np.full(lanes.shape, np.inf), np.empty(lanes.shape)
    cuts = {*range(_CHUNK, n, _CHUNK), n}
    if prefix is not None and 0 < prefix < n:
        cuts.add(prefix)
    start = 0
    with np.errstate(divide="ignore", over="ignore"):
        for stop in sorted(cuts):
            diag, couplings = op.diag[start:stop, None], off_sq[start:stop].tolist()
            rows = diag - lanes
            end = _pivots(rows, d, couplings, buf, nudge=False)
            if not rows.all():
                np.subtract(diag, lanes, out=rows)
                end = _pivots(rows, d, couplings, buf, nudge=True)
            counts += np.count_nonzero(rows < 0.0, axis=0)
            if stop == prefix:
                head = counts.copy()
            d, start = end, stop
    shape = energies.shape
    return (counts if head is None else head).reshape(shape), counts.reshape(shape)


def sturm_count(op: FiniteOperator, energy: float) -> int:
    """Number of eigenvalues of the hard-wall chain strictly below energy."""
    return int(_counts_batch(op, [energy])[1][0])


def cross_validate(
    diagram: BandDiagram,
    pot: PeriodicPotential,
    lat: LatticeSpec,
    margin: float = DEFAULT_MARGIN,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = DEFAULT_ROOT_TOL,
) -> ValidationReport:
    """Check every zone of a diagram against the counting oracle.

    Zones are cut at freshly recomputed discriminant edges lying more than
    _MERGE_DISTANCE from every boundary of the diagram, so a misplaced claimed
    edge leaves a segment whose claimed class the oracle can contradict; the
    diagram's own boundaries are never merged, so narrow zones are checked
    too. Each segment (lo, hi) is probed at lo + inset and hi - inset, inset =
    min(margin, (hi - lo)/4), on hard-wall chains of n1 = 1000 m and
    n2 = 2000 m sites, both read from one pivot pass. A segment is Gap when
    the count between its probes is the same at both sizes and at most
    MAX_EDGE_STATES, and Band otherwise; it must be Band inside claimed
    allowed zones and Gap inside claimed forbidden ones. Raises
    ValidationMismatchError (carrying the full report) if any segment fails.

    Resolution: a claimed edge within _MERGE_DISTANCE (1e-6) of the
    recomputed one cuts no segment, so it passes whatever class the sliver
    between them has. With v = (1, -1) on [-2, 6], a claimed edge 1.0 + 1e-6
    passes, and a shift of 2e-6 either way on either inner edge is caught.

    grid_points and tol drive the edge recomputation; pass the ones that
    built the diagram, or edges found to a coarser tol leave slivers that
    read Gap inside claimed bands.
    """
    if not margin > 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    recomputed = find_band_edges(
        pot, lat, diagram.e_lo, diagram.e_hi, grid_points=grid_points, tol=tol
    )
    bounds = [diagram.e_lo] + [z.hi for z in diagram.zones]
    cuts = []
    for x in sorted(recomputed.edge_energies()):
        if all(abs(x - p) > _MERGE_DISTANCE for p in bounds + cuts):
            cuts.append(x)
    kinds, probes = [], []
    for z in diagram.zones:
        points = [z.lo, *(x for x in cuts if z.lo < x < z.hi), z.hi]
        for lo, hi in zip(points[:-1], points[1:]):
            inset = min(margin, 0.25 * (hi - lo))
            kinds.append(z.kind)
            probes += [lo + inset, hi - inset]
    n1 = 1000 * pot.m
    op = FiniteOperator.from_potential(pot, lat, 2 * n1)
    counts1, counts2 = _counts_batch(op, probes, prefix=n1)
    inside1 = counts1[1::2] - counts1[0::2]
    inside2 = counts2[1::2] - counts2[0::2]
    checks = []
    for k, kind in enumerate(kinds):
        expected = "Band" if kind == SpectralClass.ALLOWED else "Gap"
        verdict = "Gap" if inside1[k] == inside2[k] <= MAX_EDGE_STATES else "Band"
        checks.append(
            ValidationCheck(
                lo=probes[2 * k],
                hi=probes[2 * k + 1],
                expected=expected,
                verdict=verdict,
                passed=verdict == expected,
            )
        )
    report = ValidationReport(checks=tuple(checks))
    if not report.all_passed:
        raise ValidationMismatchError(report)
    return report
