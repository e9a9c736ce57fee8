"""Exception and warning types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 1,
numerical failures exit 2, oracle validation mismatches exit 3.
"""

from __future__ import annotations


class LatticeBandError(Exception):
    """Base class for all package errors."""


class ConfigError(LatticeBandError):
    """Bad scenario text, missing fields, or invalid operator parameters."""


class NumericalError(LatticeBandError):
    """A computation cannot proceed for the given inputs."""


class HoppingDegenerateError(NumericalError):
    """|1/delta^2 - u(n)| fell below the degeneracy threshold.

    The recurrence cannot be solved forward for psi(n+1) there; the chain
    decouples into finite pieces.
    """


class NotForbiddenError(NumericalError):
    """A gap-only operation was requested at an energy inside a band."""


class DegenerateEdgeError(NumericalError):
    """The two Floquet multipliers coincide (|discriminant| = 2)."""


class OutsideAllowedZoneError(NumericalError):
    """A band-only operation was requested at a gap or edge energy."""


class InsufficientDataError(NumericalError):
    """The trace is too short (or too featureless) for the requested estimate."""


class ValidationMismatchError(LatticeBandError):
    """The eigenvalue-counting oracle disagrees with a band diagram."""

    def __init__(self, report):
        self.report = report
        failing = [c for c in report.checks if not c.passed]
        detail = "; ".join(
            f"({c.lo:.6g}, {c.hi:.6g}): expected {c.expected}, oracle says {c.verdict}"
            for c in failing
        )
        super().__init__(f"validation mismatch on {len(failing)} interval(s): {detail}")


class GridResolutionWarning(UserWarning):
    """Formerly: the energy grid was too coarse to separate nearby band edges.

    The package no longer raises it, since eigenvalues now bracket every
    edge; it stays exported for code that still filters or counts it.
    """
