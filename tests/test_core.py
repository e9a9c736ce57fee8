import math

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
