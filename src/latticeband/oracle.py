"""Eigenvalue-counting cross-check for band diagrams.

A hard-wall truncation of the periodic operator is a real symmetric
tridiagonal matrix: diagonal 2/d^2 + v(n), first off-diagonals u(n) - 1/d^2.
The number of eigenvalues below E equals the number of negative pivots in the
LDL^T factorisation of J - E I, a single scalar recurrence per site. The
pivots of a leading block are the first pivots of the whole chain, so one
pass over a chain of n2 = 2000 m sites also gives the counts of its leading
n1 = 1000 m sites. Between two energies inside a band the count grows by one
state per added period; inside a gap it stays at the handful of wall-bound
states a truncation can pin there, whatever the length (gap labelling). Every
zone of a diagram is probed this way and judged Band or Gap, on a path that
never touches the transfer-matrix code.
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


def _counts_batch(op: FiniteOperator, energies, prefix: int | None = None):
    """Negative-pivot counts of J - E I for several energies at once.

    Returns (counts of the leading prefix sites, counts of the whole chain);
    prefix defaults to the whole chain.
    """
    energies = np.asarray(energies, dtype=float)
    counts = np.zeros(energies.shape, dtype=int)
    head = None
    off_sq = op.off**2
    with np.errstate(divide="ignore", over="ignore"):
        d = op.diag[0] - energies
        d = np.where(d == 0.0, -_PIVOT_TINY, d)
        counts += d < 0.0
        for i in range(1, op.n_sites):
            if i == prefix:
                head = counts.copy()
            d = op.diag[i] - energies - off_sq[i - 1] / d
            d = np.where(d == 0.0, -_PIVOT_TINY, d)
            counts += d < 0.0
    return (counts if head is None else head), counts


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
    grid_points and tol drive the edge recomputation; pass the ones that
    built the diagram, or edges found to a coarser tol leave slivers that
    read Gap inside claimed bands.
    """
    if margin <= 0.0:
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
