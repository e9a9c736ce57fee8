import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from latticeband import (
    HoppingDegenerateError,
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    propagate,
    recurrence_residual,
    stagger,
    validate_potential,
)
from latticeband import core
from latticeband.core import CYCLE_EVENTS, RESCALE_LIMIT

FREE = PeriodicPotential.free()
LAT = LatticeSpec()


def naive_propagate(pot, lat, energy, psi0, psi1, n_sites):
    """Raw-float reference recurrence, no rescaling. Only for moderate growth."""
    inv = 1.0 / lat.delta**2
    psi = [psi0, psi1]
    for n in range(1, n_sites):
        h_n = inv - pot.u_at(n)
        a = (2.0 * inv + pot.v_at(n) - energy) / h_n
        b = -(inv - pot.u_at(n - 1)) / h_n
        psi.append(a * psi[n] + b * psi[n - 1])
    return np.array(psi)


class TestTypes:
    def test_lattice_spec_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            LatticeSpec(delta=0.0)
        with pytest.raises(ValueError):
            LatticeSpec(delta=-1.0)
        with pytest.raises(ValueError, match="overflows"):
            LatticeSpec(delta=1e-300)

    def test_potential_lengths_must_match(self):
        with pytest.raises(ValueError):
            PeriodicPotential(v=(1.0, 2.0), u=(0.0,))
        with pytest.raises(ValueError):
            PeriodicPotential(v=(), u=())

    def test_potential_indexing_wraps(self):
        pot = PeriodicPotential(v=(1.0, -1.0), u=(0.2, 0.3))
        assert pot.v_at(2) == 1.0
        assert pot.u_at(-1) == 0.3  # u(n-1) at n = 0 wraps to the last phase

    def test_trivial_initial_condition_rejected(self):
        with pytest.raises(ValueError):
            InitialCondition(0.0, 0.0)

    def test_hopping_degenerate_rejected(self):
        with pytest.raises(HoppingDegenerateError):
            validate_potential(PeriodicPotential(v=(0.0,), u=(1.0,)), LAT)

    @pytest.mark.parametrize(
        "pot,delta,name",
        [
            (FREE, 1e-154, r"c\[0\]"),  # 1/d^2 = 1e308 is finite, 2/d^2 is not
            (PeriodicPotential(v=(-1.0, 0.0), u=(0.0, -1e308)), 0.8e308**-0.5, r"h\[1\]"),
            (PeriodicPotential(v=(0.0, 0.0), u=(1.0 - 1e-8, -1e308)), 1.0, r"beta\[0\]"),
        ],
    )
    def test_overflowing_coefficients_rejected(self, pot, delta, name):
        with pytest.raises(ValueError, match=name + " = (-)?inf is not finite"):
            validate_potential(pot, LatticeSpec(delta=delta))

    def test_mixed_sign_hopping_rejected(self):
        with pytest.raises(HoppingDegenerateError):
            validate_potential(PeriodicPotential(v=(0.0, 0.0), u=(0.5, 1.5)), LAT)

    def test_lattice_step_is_stored_as_float(self):
        for delta in (np.float64(0.5), 1, np.float32(0.25)):
            lat = LatticeSpec(delta)
            assert type(lat.delta) is float and lat.delta == float(delta)
            assert type(lat.inv_step_sq) is float


class TestMemoisedTable:
    @pytest.mark.parametrize(
        "pot,delta,error",
        [
            (PeriodicPotential(v=(0.0,), u=(1.0,)), 1.0, HoppingDegenerateError),
            (PeriodicPotential(v=(0.0, 0.0), u=(0.5, 1.5)), 1.0, HoppingDegenerateError),
            (FREE, 1e-154, ValueError),
        ],
    )
    def test_rejected_operator_raises_on_every_call(self, pot, delta, error):
        for _ in range(3):
            with pytest.raises(error):
                validate_potential(
                    PeriodicPotential(v=pot.v, u=pot.u), LatticeSpec(delta=delta)
                )

    def test_equal_keys_share_the_uncached_table(self):
        rng = np.random.default_rng(9)
        for m in (1, 2, 7, 50):
            v, u = rng.uniform(-1.0, 1.0, m), rng.uniform(-0.2, 0.2, m)
            first = validate_potential(PeriodicPotential(v=v, u=u), LatticeSpec(0.7))
            pot, lat = PeriodicPotential(v=tuple(v), u=tuple(u)), LatticeSpec(0.7)
            table = validate_potential(pot, lat)
            assert table is first
            assert table == validate_potential.__wrapped__(pot, lat)
            assert all(type(x) is float for x in table.c + table.h + table.beta)

    def test_signed_zeros_share_one_table(self):
        # 0.0 == -0.0 makes these one key; the tables agree bit for bit anyway
        plus = PeriodicPotential(v=(0.0, 0.3), u=(0.0, 0.1))
        minus = PeriodicPotential(v=(-0.0, 0.3), u=(-0.0, 0.1))
        assert plus == minus
        for lat in (LAT, LatticeSpec(0.3)):
            a = validate_potential.__wrapped__(plus, lat)
            b = validate_potential.__wrapped__(minus, lat)
            assert [x.hex() for x in a.c + a.h + a.beta] == [x.hex() for x in b.c + b.h + b.beta]

    def test_equal_potentials_hash_equal_and_share_one_entry(self):
        plus = PeriodicPotential(v=(0.0, 0.3), u=(0.0, 0.1))
        minus = PeriodicPotential(v=(-0.0, 0.3), u=(-0.0, 0.1))
        moved = dataclasses.replace(plus, v=(0.5, -0.0))
        for pot in (plus, minus, moved, pickle.loads(pickle.dumps(moved))):
            assert hash(pot) == hash((pot.v, pot.u))
        assert hash(plus) == hash(minus)
        assert pickle.loads(pickle.dumps(moved)) == moved
        lat = LatticeSpec(0.61)
        before = validate_potential.cache_info()
        assert validate_potential(plus, lat) is validate_potential(minus, lat)
        after = validate_potential.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def step_coefficients(pot, lat, energy, n):
    """(a(n), b(n)) of the step at site n, read from the coefficient table."""
    table = validate_potential(pot, lat)
    r = n % table.m
    return table.alpha(r, energy), table.beta[r]


class TestStepCoefficients:
    def test_free_lattice(self):
        a, b = step_coefficients(FREE, LAT, 1.0, 0)
        assert a == 1.0 and b == -1.0
        a, b = step_coefficients(FREE, LAT, 5.0, 3)
        assert a == -3.0 and b == -1.0

    def test_constant_nonlocal(self):
        # psi(n) = r^n with r + 1/r = -4 solves the chain, fixing a = -4.
        pot = PeriodicPotential(v=(0.0,), u=(0.5,))
        a, b = step_coefficients(pot, LAT, 4.0, 0)
        assert a == pytest.approx(-4.0, abs=1e-15)
        assert b == -1.0
        r = -2.0 + math.sqrt(3.0)
        assert abs(r**2 - (a * r + b)) < 1e-14  # r solves r^2 = a r + b

    def test_local_only_reduces_to_b_minus_one(self):
        pot = PeriodicPotential.local([0.3, -0.7, 1.1])
        lat = LatticeSpec(delta=0.5)
        for n in range(6):
            a, b = step_coefficients(pot, lat, 0.9, n)
            assert b == -1.0
            assert a == pytest.approx(2.0 + 0.25 * (pot.v_at(n) - 0.9), rel=1e-15)

    def test_degenerate_hopping_raises(self):
        pot = PeriodicPotential(v=(0.0,), u=(1.0 - 1e-12,))
        with pytest.raises(HoppingDegenerateError):
            validate_potential(pot, LAT)


class TestPropagate:
    @pytest.mark.parametrize(
        "energy,expected",
        [
            (0.0, [0, 1, 2, 3, 4]),
            (4.0, [0, 1, -2, 3, -4]),
            (5.0, [0, 1, -3, 8, -21]),
        ],
    )
    def test_free_lattice_hand_values(self, energy, expected):
        trace = propagate(FREE, LAT, energy, InitialCondition(0.0, 1.0), 4)
        assert trace.reconstructed().tolist() == expected

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            pot = PeriodicPotential(
                v=tuple(rng.normal(size=m)), u=tuple(rng.uniform(-0.4, 0.4, size=m))
            )
            energy = float(rng.uniform(-1.0, 5.0))
            ic = InitialCondition(float(rng.normal()), float(rng.normal()))
            trace = propagate(pot, LAT, energy, ic, 30)
            ref = naive_propagate(pot, LAT, energy, ic.psi0, ic.psi1, 30)
            got = trace.reconstructed()
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_rescaling_keeps_scaled_values_bounded(self):
        trace = propagate(FREE, LAT, 8.0, InitialCondition(0.0, 1.0), 2000)
        # working values stay within one blow-up step of the rescale limit
        assert np.max(np.abs(trace.s)) < 1e6 * 10.0
        assert trace.ell[-1] > 100.0  # amplitude really did grow

    def test_rescaled_trace_reconstruction_in_log_space(self):
        # gap solution grows like kappa per site; the log-amplitude must track it
        trace = propagate(FREE, LAT, 5.0, InitialCondition(1.0, -2.618), 500)
        la = trace.log_abs()
        kappa = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        slope = (la[400] - la[100]) / 300.0
        assert slope == pytest.approx(kappa, abs=1e-9)

    def test_residual_invariant(self):
        rng = np.random.default_rng(3)
        for energy in (-0.5, 0.3, 2.0, 3.9, 4.7):
            pot = PeriodicPotential(
                v=tuple(rng.normal(size=2)), u=tuple(rng.uniform(-0.3, 0.3, size=2))
            )
            trace = propagate(pot, LAT, energy, InitialCondition(0.3, 1.0), 800)
            assert recurrence_residual(trace, pot, LAT) <= 1e-10

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            propagate(FREE, LAT, 1.0, InitialCondition(0.0, 1.0), 1)

    def test_linearity(self):
        pot = PeriodicPotential(v=(0.5, -0.5), u=(0.1, 0.2))
        energy = 1.7
        a, b = 0.83, -1.91
        t1 = propagate(pot, LAT, energy, InitialCondition(1.0, 0.0), 60)
        t2 = propagate(pot, LAT, energy, InitialCondition(0.0, 1.0), 60)
        t3 = propagate(
            pot, LAT, energy, InitialCondition(a * 1.0 + b * 0.0, a * 0.0 + b * 1.0), 60
        )
        combo = a * t1.reconstructed() + b * t2.reconstructed()
        got = t3.reconstructed()
        scale = np.max(np.abs(combo))
        assert np.allclose(got, combo, rtol=1e-9, atol=1e-9 * scale)

    def test_wronskian_constant(self):
        # allowed-zone energy (band is (2.472, 3.991) here), long trace
        pot = PeriodicPotential(v=(0.4, -0.4), u=(0.15, -0.1))
        energy = 3.0
        t1 = propagate(pot, LAT, energy, InitialCondition(1.0, 0.0), 500)
        t2 = propagate(pot, LAT, energy, InitialCondition(0.0, 1.0), 500)
        p1, p2 = t1.reconstructed(), t2.reconstructed()
        h = validate_potential(pot, LAT).h
        w = np.array(
            [h[n % 2] * (p1[n + 1] * p2[n] - p2[n + 1] * p1[n]) for n in range(500)]
        )
        assert np.max(np.abs(w - w[0])) <= 1e-9 * abs(w[0])

    def test_wronskian_constant_in_gap(self):
        # short window: the products grow, the combination must not drift
        energy = 4.1
        t1 = propagate(FREE, LAT, energy, InitialCondition(1.0, 0.0), 15)
        t2 = propagate(FREE, LAT, energy, InitialCondition(0.0, 1.0), 15)
        p1, p2 = t1.reconstructed(), t2.reconstructed()
        w = np.array([p1[n + 1] * p2[n] - p2[n + 1] * p1[n] for n in range(15)])
        assert np.max(np.abs(w - w[0])) <= 1e-9 * abs(w[0])

    def test_free_motion_band_is_bounded(self):
        # net amplitude drift per site, measured on the running maximum so
        # near-knot samples do not read as decay
        for energy in (0.5, 1.0, 2.0, 3.0, 3.9):
            trace = propagate(FREE, LAT, energy, InitialCondition(0.0, 1.0), 1000)
            la = trace.log_abs()
            head = la[: 501].max()
            tail = la[500:].max()
            assert abs(tail - head) / 500.0 < 1e-6


def walk_every_site(pot, lat, energy, ic, n_sites):
    """propagate's loop without the cycle shortcut: (s, ell) of every site."""
    table = validate_potential(pot, lat)
    phases = [(table.alpha(r, energy), table.beta[r]) for r in range(table.m)]
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
    return np.array(s), np.array(ell)


def assert_same_bits(trace, pot, energy, ic, n_sites):
    s, ell = walk_every_site(pot, LAT, energy, ic, n_sites)
    assert trace.s.tobytes() == s.tobytes()
    assert trace.ell.tobytes() == ell.tobytes()


def traced_peak(f, *args):
    """(f(*args), the peak of the memory it allocated)."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class CountingMath:
    """The math module, counting calls of log."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def log_calls(monkeypatch, pot, energy, ic, n_sites):
    """(trace, math.log calls) of one propagate run."""
    counter = CountingMath()
    monkeypatch.setattr(core, "math", counter)
    trace = propagate(pot, LAT, energy, ic, n_sites)
    monkeypatch.undo()
    return trace, counter.logs


# Free lattice at E = 4.5: the multipliers are -2 and -1/2, so a gap solution
# rescales once every 20 sites (2^20 > 1e6) and from (0, 1) its rescaled
# state recurs after step 80: the loop stops at site 81, with a period of 20.
GAP = 4.5
# v = 0, u = (0, 1/2) at E = 2: a = 0 at both phases and b = -1/2, -2, so
# (1, 0) grows by -2 per period with a signed zero at every odd site, and
# (0, 1) decays by -1/2 per period.
ZEROS = PeriodicPotential(v=(0.0, 0.0), u=(0.0, 0.5))


class TestCycleReuse:
    def test_shortcut_engages_on_a_gap_trace(self, monkeypatch):
        # the E = 4.5 trace of trace_free.scenario: 9 rescale events over
        # 200 sites, of which the walk computes the first 4
        ic = InitialCondition(0.0, 1.0)
        trace, logs = log_calls(monkeypatch, FREE, GAP, ic, 200)
        assert np.count_nonzero(np.diff(trace.ell)) == 9
        assert logs == 4
        assert_same_bits(trace, FREE, GAP, ic, 200)

    def test_band_trace_walks_every_site(self, monkeypatch):
        ic = InitialCondition(0.0, 1.0)
        trace, logs = log_calls(monkeypatch, FREE, 2.0, ic, 2000)
        assert logs == 0
        assert_same_bits(trace, FREE, 2.0, ic, 2000)

    # 81: the shortcut starts at the last site; 101, 201: the trace ends on
    # a cycle boundary; the others end mid-cycle
    @pytest.mark.parametrize("n_sites", [81, 82, 83, 100, 101, 102, 200, 201])
    def test_trace_end_anywhere_in_the_cycle(self, n_sites):
        ic = InitialCondition(0.0, 1.0)
        assert_same_bits(propagate(FREE, LAT, GAP, ic, n_sites), FREE, GAP, ic, n_sites)

    @pytest.mark.parametrize(
        "psi0,psi1",
        [(1e300, -1e300), (1e-300, 3e-300), (-1e-300, 1e300), (1e300, 5e-324), (2.0, 1e-300)],
    )
    def test_huge_and_tiny_initial_conditions(self, psi0, psi1):
        pot = PeriodicPotential(v=(1.0, -1.0), u=(0.1, -0.2))
        ic = InitialCondition(psi0, psi1)
        for energy in (-2.5, 1.1, 7.0):
            assert_same_bits(propagate(pot, LAT, energy, ic, 600), pot, energy, ic, 600)

    def test_decaying_solution_rescales_upward(self):
        # (1, -1/2) is the decaying solution, exact in binary: every event
        # scales the pair up and ell falls
        ic = InitialCondition(1.0, -0.5)
        trace = propagate(FREE, LAT, GAP, ic, 500)
        assert trace.ell[-1] < -300.0
        assert np.all(np.diff(trace.ell) <= 0.0)
        assert_same_bits(trace, FREE, GAP, ic, 500)

    @pytest.mark.parametrize("psi0,psi1", [(1.0, 0.0), (1.0, -0.0), (-0.0, 1.0), (0.0, -1.0)])
    def test_states_holding_signed_zeros(self, monkeypatch, psi0, psi1):
        ic = InitialCondition(psi0, psi1)
        trace, logs = log_calls(monkeypatch, ZEROS, 2.0, ic, 301)
        zeros = trace.s[trace.s == 0.0]
        assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))
        assert logs < np.count_nonzero(np.diff(trace.ell))
        assert_same_bits(trace, ZEROS, 2.0, ic, 301)

    @pytest.mark.parametrize("m", [3, 8, 17, 50])
    def test_long_periods(self, m):
        rng = np.random.default_rng(m)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, m)), u=tuple(rng.uniform(-0.2, 0.2, m))
        )
        ic = InitialCondition(0.3, 1.0)
        for energy in [-3.0, 7.5, 50.0, *rng.uniform(-1.5, 5.5, 6)]:
            energy = float(energy)
            assert_same_bits(propagate(pot, LAT, energy, ic, 3000), pot, energy, ic, 3000)

    def test_one_rescale_per_site_holds_bounded_state(self):
        # E = 1e7 rescales at every site, and a period of 5000 > CYCLE_EVENTS
        # sites keeps the state from recurring: the walk visits every site
        # and the search holds at most CYCLE_EVENTS log factors
        m, n_sites = 5000, 30000
        assert m > CYCLE_EVENTS
        rng = np.random.default_rng(5)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, m)), u=tuple(rng.uniform(-0.2, 0.2, m))
        )
        ic = InitialCondition(0.3, 1.0)
        validate_potential(pot, LAT)
        trace, peak = traced_peak(propagate, pot, LAT, 1e7, ic, n_sites)
        (s, ell), reference_peak = traced_peak(walk_every_site, pot, LAT, 1e7, ic, n_sites)
        assert np.count_nonzero(np.diff(trace.ell)) == n_sites - 1
        assert trace.s.tobytes() == s.tobytes() and trace.ell.tobytes() == ell.tobytes()
        # beyond the walk: the steps and log factors of at most CYCLE_EVENTS
        # events, under 64 bytes each
        assert peak < reference_peak + 64 * CYCLE_EVENTS


class TestStagger:
    def test_hand_example(self):
        trace = propagate(FREE, LAT, 1.0, InitialCondition(0.0, 1.0), 5)
        assert trace.reconstructed().tolist() == [0, 1, 1, 0, -1, -1]
        flipped = stagger(trace)
        assert flipped.energy == 3.0
        assert flipped.ic == InitialCondition(0.0, -1.0)
        assert flipped.reconstructed().tolist() == [0, -1, 1, 0, -1, 1]
        # the flipped trace solves the E = 3 recurrence phi(n+1) = -phi(n) - phi(n-1)
        assert recurrence_residual(flipped, FREE, LAT) <= 1e-10

    def test_involution(self):
        trace = propagate(FREE, LAT, 0.7, InitialCondition(0.3, -1.2), 40)
        back = stagger(stagger(trace))
        assert np.array_equal(back.s, trace.s)
        assert np.array_equal(back.ell, trace.ell)
        assert back.ic == trace.ic
        assert back.energy == pytest.approx(trace.energy, rel=1e-15)

    def test_band_centre_is_self_mirrored(self):
        trace = propagate(FREE, LAT, 2.0, InitialCondition(0.0, 1.0), 10)
        assert stagger(trace).energy == 2.0

    def test_mirror_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            # dyadic energies make 4 - E exact, so both sides round alike
            energy = round(float(rng.uniform(-1.0, 5.0)) * 2.0**30) / 2.0**30
            p, q = float(rng.normal()), float(rng.normal())
            n = 300
            lhs = stagger(propagate(FREE, LAT, energy, InitialCondition(p, q), n))
            rhs = propagate(FREE, LAT, lhs.energy, InitialCondition(p, -q), n)
            la_l, la_r = lhs.log_abs(), rhs.log_abs()
            top = np.maximum(la_l, la_r)
            top[~np.isfinite(top)] = 0.0
            vl = lhs.s * np.exp(lhs.ell - top)
            vr = rhs.s * np.exp(rhs.ell - top)
            assert np.max(np.abs(vl - vr)) <= 1e-12 * max(
                1.0, np.max(np.abs(vl)), np.max(np.abs(vr))
            )
