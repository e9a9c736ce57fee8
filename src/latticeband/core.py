"""Operator definition and overflow-safe wave propagation on a 1D lattice.

The operator acts on functions psi(n) of an integer site index through the
three-term recurrence

    (1/d^2 - u(n)) psi(n+1) =
        (2/d^2 + v(n) - E) psi(n) - (1/d^2 - u(n-1)) psi(n-1)

where d is the lattice step, v is the periodic on-site (local) potential and
u is the periodic coupling on the two diagonals adjacent to the main one.
Dividing through by the effective hopping h(n) = 1/d^2 - u(n) gives the
per-site step psi(n+1) = a(n) psi(n) + b(n) psi(n-1) with

    a(n) = (2/d^2 + v(n) - E) / h(n),      b(n) = -h(n-1) / h(n).

For u = 0 this is the familiar a = 2 + d^2 (v - E), b = -1.

Solutions in spectral gaps grow exponentially, so traces store a scaled value
s(n) together with a cumulative log-amplitude ell(n); the actual solution is
psi(n) = s(n) * exp(ell(n)). Consecutive sites between rescale events share
the same ell, which keeps neighbour ratios exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import HoppingDegenerateError

# |h(n)| below this counts as a decoupled chain.
HOPPING_EPSILON = 1e-9
# Working pair is rescaled once its magnitude leaves [1/RESCALE_LIMIT, RESCALE_LIMIT].
RESCALE_LIMIT = 1e6
# Every emitted trace satisfies the recurrence to this relative residual.
RESIDUAL_TOLERANCE = 1e-10
# Coefficient tables kept by validate_potential, least recently used dropped first.
TABLE_CACHE_SIZE = 64


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice step d > 0 (dimensionless length unit)."""

    delta: float = 1.0

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"lattice step must be positive, got {self.delta}")
        if not self.delta * self.delta > 1.0 / sys.float_info.max:
            raise ValueError(f"lattice step {self.delta} is too small: 1/d^2 overflows")
        # equal steps are equal cache keys, so they must give equal-typed tables
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def inv_step_sq(self) -> float:
        return 1.0 / (self.delta * self.delta)


@dataclass(frozen=True)
class PeriodicPotential:
    """Period-m potential pair: local values v and nonlocal couplings u.

    Site n reads v[n mod m] and u[n mod m]; the u(n-1) factor at n = 0 wraps
    to u[m-1].
    """

    v: tuple
    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        if len(self.v) < 1:
            raise ValueError("potential period must be at least 1")
        if len(self.v) != len(self.u):
            raise ValueError(
                f"v and u must have equal length, got {len(self.v)} and {len(self.u)}"
            )
        # validate_potential's cache hashes its key on every call; hash the 2m
        # floats once, to the value the generated __hash__ would give
        object.__setattr__(self, "_hash", hash((self.v, self.u)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.v)

    def v_at(self, n: int) -> float:
        return self.v[n % self.m]

    def u_at(self, n: int) -> float:
        return self.u[n % self.m]

    @classmethod
    def free(cls, m: int = 1) -> "PeriodicPotential":
        return cls(v=(0.0,) * m, u=(0.0,) * m)

    @classmethod
    def local(cls, v) -> "PeriodicPotential":
        v = tuple(v)
        return cls(v=v, u=(0.0,) * len(v))


@dataclass(frozen=True)
class CoefficientTable:
    """Per-phase coefficients of the step psi(n+1) = a(n) psi(n) + b(n) psi(n-1).

    Site n uses phase r = n mod m: a(n) = alpha_r(E) = (c[r] - E) / h[r] and
    b(n) = beta[r] = -h[r-1] / h[r], with c = 2/d^2 + v and h = 1/d^2 - u.
    Built by validate_potential, which guarantees every h[r] is usable and
    every coefficient finite.
    """

    c: tuple
    h: tuple
    beta: tuple

    @property
    def m(self) -> int:
        return len(self.c)

    def alpha(self, r: int, energy):
        """alpha_r(E) for a float or a numpy array of energies."""
        return (self.c[r] - energy) / self.h[r]


@dataclass(frozen=True)
class InitialCondition:
    """Values at two neighbouring sites; must not both vanish."""

    psi0: float
    psi1: float

    def __post_init__(self):
        if self.psi0 == 0.0 and self.psi1 == 0.0:
            raise ValueError("initial condition (0, 0) is the trivial solution")


@dataclass(frozen=True)
class SolutionTrace:
    """Sampled solution psi(n) = s(n) * exp(ell(n)) for n = 0..n_sites."""

    energy: float
    ic: InitialCondition
    n_sites: int
    s: np.ndarray
    ell: np.ndarray

    def __post_init__(self):
        if len(self.s) != self.n_sites + 1 or len(self.ell) != self.n_sites + 1:
            raise ValueError("trace arrays must have n_sites + 1 entries")
        self.s.flags.writeable = False
        self.ell.flags.writeable = False

    def log_abs(self) -> np.ndarray:
        """log |psi(n)| per site (-inf at exact zeros)."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.s)) + self.ell

    def neighbours(self):
        """Neighbour values at a common scale: (below, above), n_sites each.

        below[k] is psi(k) at the scale of s(k+1) and above[k] is psi(k+1) at
        the scale of s(k), so (below[n-1], s(n), above[n]) is psi up to one
        positive factor.
        """
        # math.exp, not np.exp: numpy's vectorised exp can round differently
        # in the last bit, and ratios built on these values are written out.
        # Only rescale events change ell; everywhere else the factor is 1.0.
        step = np.diff(self.ell)
        jumps = np.flatnonzero(step)
        down, up = np.ones(len(step)), np.ones(len(step))
        down[jumps] = [math.exp(-x) for x in step[jumps].tolist()]
        up[jumps] = [math.exp(x) for x in step[jumps].tolist()]
        return self.s[:-1] * down, self.s[1:] * up

    def reconstructed(self, clamp: float | None = None) -> np.ndarray:
        """psi values as plain floats, optionally clamped to +-clamp.

        Sites that never saw a rescale (ell = 0) come back bit-exact;
        magnitudes beyond the float range come out as +-inf unless a clamp
        is given.
        """
        with np.errstate(over="ignore"):
            out = self.s * np.exp(self.ell)
        if clamp is not None:
            over = self.log_abs() > math.log(clamp)
            out[over] = np.sign(self.s[over]) * clamp
        return out


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def validate_potential(pot: PeriodicPotential, lat: LatticeSpec) -> CoefficientTable:
    """Check the operator and return its step table.

    Rejects hopping that degenerates or changes sign, and coefficients that
    are not finite (a lattice step so small that 2/d^2 overflows).

    The table is memoised per (pot, lat), the last TABLE_CACHE_SIZE pairs
    kept. That is safe because both are frozen dataclasses of plain floats,
    so equal keys build the same table bit for bit (a signed zero in v or u
    meets the nonzero 2/d^2 or 1/d^2 and leaves no trace), and a table of
    float tuples cannot change once built. A rejected operator is not
    cached, so it raises on every call.
    """
    inv = lat.inv_step_sq
    h = tuple([inv - u for u in pot.u])
    if min(map(abs, h)) < HOPPING_EPSILON:
        r = next(r for r, hr in enumerate(h) if abs(hr) < HOPPING_EPSILON)
        raise HoppingDegenerateError(
            f"hopping degenerate at site phase {r}: |1/d^2 - u| = {abs(h[r]):.3g} "
            f"< {HOPPING_EPSILON:g}"
        )
    # No h is zero here, so a sign change shows as min(h) < 0 < max(h).
    if min(h) < 0.0 < max(h):
        raise HoppingDegenerateError(
            "effective hopping changes sign across the period"
        )
    table = CoefficientTable(
        c=tuple([2.0 * inv + v for v in pot.v]),
        h=h,
        beta=tuple([-a / b for a, b in zip(h[-1:] + h[:-1], h)]),
    )
    values = table.c + h + table.beta
    if not all(map(math.isfinite, values)):
        k = next(k for k, x in enumerate(values) if not math.isfinite(x))
        raise ValueError(
            f"step coefficient {('c', 'h', 'beta')[k // pot.m]}[{k % pot.m}] = {values[k]} "
            f"is not finite (lattice step {lat.delta!r})"
        )
    return table


def propagate(
    pot: PeriodicPotential,
    lat: LatticeSpec,
    energy: float,
    ic: InitialCondition,
    n_sites: int,
) -> SolutionTrace:
    """Run the recurrence from (psi(0), psi(1)) out to site n_sites.

    The working pair is renormalised whenever its magnitude leaves
    [1/RESCALE_LIMIT, RESCALE_LIMIT]; the log-amplitude array absorbs the
    factors so reconstruction is exact up to rounding.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be at least 2, got {n_sites}")
    table = validate_potential(pot, lat)
    phases = [(table.alpha(r, energy), table.beta[r]) for r in range(table.m)]
    # (a(n), b(n)) for n = 1 .. n_sites - 1
    steps = itertools.islice(itertools.cycle(phases), 1, n_sites)
    hi, lo = RESCALE_LIMIT, 1.0 / RESCALE_LIMIT

    p_prev, p_cur = float(ic.psi0), float(ic.psi1)
    offset = 0.0
    s, ell = [p_prev, p_cur], [0.0, 0.0]
    for a, b in steps:
        p_next = a * p_cur + b * p_prev
        mx = abs(p_cur)
        if abs(p_next) > mx:
            mx = abs(p_next)
        if mx > hi or 0.0 < mx < lo:
            p_cur /= mx
            p_next /= mx
            offset += math.log(mx)
        s.append(p_next)
        ell.append(offset)
        p_prev, p_cur = p_cur, p_next
    return SolutionTrace(
        energy=energy, ic=ic, n_sites=n_sites, s=np.array(s), ell=np.array(ell)
    )


def stagger(trace: SolutionTrace, lat: LatticeSpec = LatticeSpec()) -> SolutionTrace:
    """Flip the sign of every other sample: s'(n) = (-1)^n s(n).

    For the free lattice this maps a solution at E to a solution at the
    mirrored energy 4/d^2 - E with initial condition (psi0, -psi1); applying
    it twice restores the original trace.
    """
    signs = np.where(np.arange(trace.n_sites + 1) % 2 == 0, 1.0, -1.0)
    return SolutionTrace(
        energy=4.0 * lat.inv_step_sq - trace.energy,
        ic=InitialCondition(trace.ic.psi0, -trace.ic.psi1),
        n_sites=trace.n_sites,
        s=trace.s * signs,
        ell=trace.ell.copy(),
    )


def recurrence_residual(
    trace: SolutionTrace, pot: PeriodicPotential, lat: LatticeSpec
) -> float:
    """Largest relative violation of the three-term recurrence.

    Each interior triple is brought to a common scale before differencing,
    so the check is meaningful even where |psi| spans hundreds of decades.
    """
    table = validate_potential(pot, lat)
    phase = np.arange(1, trace.n_sites) % table.m
    a = np.array([table.alpha(r, trace.energy) for r in range(table.m)])[phase]
    b = np.array(table.beta)[phase]
    below, above = trace.neighbours()
    w1, w2, w3 = below[:-1], trace.s[1:-1], above[1:]
    denom = np.maximum(np.maximum(np.abs(w1), np.abs(w2)), np.abs(w3))
    keep = denom > 0.0
    res = np.abs(w3 - a * w2 - b * w1)[keep] / denom[keep]
    return float(np.max(res, initial=0.0))
