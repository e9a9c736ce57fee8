import math

import numpy as np
import pytest

import latticeband
from latticeband import (
    RESIDUAL_TOLERANCE,
    DegenerateEdgeError,
    InitialCondition,
    InsufficientDataError,
    KnotList,
    LatticeSpec,
    NotForbiddenError,
    OutsideAllowedZoneError,
    PeriodicPotential,
    SpectralClass,
    beat_estimate,
    classify_energy,
    effective_consistency_residual,
    effective_potential,
    effective_potential_periodicity_residual,
    envelope,
    find_band_edges,
    floquet_multipliers,
    floquet_solution,
    ic_sweep,
    knot_periodicity_residual,
    knots,
    propagate,
    ratio_periodicity_residual,
    ratio_sequence,
    recurrence_residual,
    tail_growth_rate,
)

FREE = PeriodicPotential.free()
P2 = PeriodicPotential.local([1.0, -1.0])
U05 = PeriodicPotential(v=(0.0,), u=(0.5,))
MIXED = PeriodicPotential(v=(1.0, -1.0), u=(0.3, 0.1))
LAT = LatticeSpec()

KAPPA5 = math.log((3.0 + math.sqrt(5.0)) / 2.0)

# One forbidden energy per example potential; MIXED has its gap at (0.98, 3.02).
GAP_CASES = [(FREE, 5.0), (U05, 4.0), (P2, 2.0), (MIXED, 2.0)]


class TestFloquetSolution:
    def test_decaying_branch_rate(self):
        trace = floquet_solution(FREE, LAT, 5.0, "decaying", 100)
        la = trace.log_abs()
        steps = np.diff(la)
        assert np.max(np.abs(steps + KAPPA5)) <= 1e-9

    def test_growing_branch_rate(self):
        trace = floquet_solution(P2, LAT, 2.0, "growing", 100)
        la = trace.log_abs()
        per_period = la[20] - la[18]
        assert per_period == pytest.approx(KAPPA5, rel=1e-10)

    def test_multiplier_relation_over_many_periods(self):
        for pot, energy in GAP_CASES:
            m = pot.m
            trace = floquet_solution(pot, LAT, energy, "decaying", 30 * m)
            lam = abs(floquet_multipliers(pot, LAT, energy).lambda_plus)
            lam = min(lam, 1.0 / lam)
            la = trace.log_abs()
            for n in range(len(la) - m):
                assert abs((la[n + m] - la[n]) - math.log(lam)) <= 1e-8

    def test_satisfies_recurrence(self):
        for pot, energy in GAP_CASES:
            for branch in ("growing", "decaying"):
                trace = floquet_solution(pot, LAT, energy, branch, 25 * pot.m)
                assert recurrence_residual(trace, pot, LAT) <= 1e-10

    def test_decaying_branch_satisfies_recurrence_at_long_periods(self):
        # kappa * m is large at these gap midpoints: a forward fill of the
        # decaying period is swamped by the growing solution
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(24, 46))
            pot = PeriodicPotential(
                v=tuple(rng.uniform(-1.0, 1.0, m)), u=tuple(rng.uniform(-0.2, 0.2, m))
            )
            diagram = find_band_edges(pot, LAT, -3.0, 7.0)
            for z in diagram.zones[1:-1]:
                if z.kind != SpectralClass.FORBIDDEN:
                    continue
                trace = floquet_solution(pot, LAT, 0.5 * (z.lo + z.hi), "decaying", 3 * m)
                assert recurrence_residual(trace, pot, LAT) <= RESIDUAL_TOLERANCE

    def test_validates_potential_once(self, monkeypatch):
        calls = []
        validate = latticeband.core.validate_potential

        def counting(pot, lat):
            calls.append(1)
            return validate(pot, lat)

        for module in (latticeband.core, latticeband.bands, latticeband.floquet):
            monkeypatch.setattr(module, "validate_potential", counting)
        for branch in ("growing", "decaying"):
            calls.clear()
            floquet_solution(MIXED, LAT, 2.0, branch, 40)
            assert len(calls) == 1

    def test_allowed_energy_rejected(self):
        with pytest.raises(NotForbiddenError):
            floquet_solution(FREE, LAT, 2.0, "growing", 50)

    def test_edge_energy_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            floquet_solution(FREE, LAT, 4.0, "growing", 50)

    def test_plus_minus_branch_names(self):
        # plus/minus follow the quadratic-formula sign: at E = 5 (D = -3) the
        # plus root is the small one
        t_plus = floquet_solution(FREE, LAT, 5.0, "plus", 20)
        assert t_plus.log_abs()[10] < t_plus.log_abs()[0]
        t_minus = floquet_solution(FREE, LAT, 5.0, "minus", 20)
        assert t_minus.log_abs()[10] > t_minus.log_abs()[0]


class TestKnots:
    def test_period_six_pattern(self):
        trace = propagate(FREE, LAT, 1.0, InitialCondition(0.0, 1.0), 12)
        assert knots(trace).positions == (0.0, 3.0, 6.0, 9.0, 12.0)

    def test_linear_solution_single_knot(self):
        trace = propagate(FREE, LAT, 0.0, InitialCondition(0.0, 1.0), 12)
        assert knots(trace).positions == (0.0,)

    def test_alternating_gap_solution_unit_spacing(self):
        trace = floquet_solution(FREE, LAT, 5.0, "growing", 60)
        positions = knots(trace).positions
        gaps = np.diff(positions)
        assert np.max(np.abs(gaps - 1.0)) <= 1e-9

    def test_interpolated_position_between_sites(self):
        trace = propagate(FREE, LAT, 3.9, InitialCondition(0.0, 1.0), 50)
        for x in knots(trace).positions:
            n = int(x)
            assert n <= x < n + 1


class TestKnotPeriodicity:
    def test_free_gap_solution(self):
        trace = floquet_solution(FREE, LAT, 5.0, "growing", 80)
        assert knot_periodicity_residual(knots(trace), 1) <= 1e-9

    def test_period_two_gap_solution(self):
        trace = floquet_solution(P2, LAT, 2.0, "growing", 80)
        assert knot_periodicity_residual(knots(trace), 2) <= 1e-8

    def test_generic_band_trace_is_aperiodic(self):
        # beating displaces the interpolated zeros from cell to cell
        trace = propagate(FREE, LAT, 3.9, InitialCondition(0.0, 1.0), 200)
        assert knot_periodicity_residual(knots(trace), 1) > 1e-3

    def test_knotless_trace(self):
        trace = floquet_solution(FREE, LAT, -0.5, "growing", 40)
        assert knots(trace).positions == ()
        assert knot_periodicity_residual(knots(trace), 1) == 0.0


class TestRatioPeriodicity:
    def test_free_gap_constant_ratio(self):
        trace = floquet_solution(FREE, LAT, 5.0, "growing", 60)
        assert ratio_periodicity_residual(trace, 1) <= 1e-9

    def test_constant_nonlocal_gap(self):
        # ratio is the constant root of r + 1/r = -4
        trace = floquet_solution(U05, LAT, 4.0, "decaying", 60)
        assert ratio_periodicity_residual(trace, 1) <= 1e-9
        r = -2.0 + math.sqrt(3.0)
        psi = trace.reconstructed()
        assert psi[5] / psi[4] == pytest.approx(r, rel=1e-10)

    def test_period_two_alternating_angles(self):
        trace = floquet_solution(P2, LAT, 2.0, "growing", 80)
        assert ratio_periodicity_residual(trace, 2) <= 1e-8
        from latticeband import ratio_sequence

        phis = ratio_sequence(trace)
        # two distinct angle classes alternate
        assert abs(phis[0] - phis[1]) > 1e-3

    def test_generic_gap_trace_is_aperiodic(self):
        trace = propagate(P2, LAT, 2.0, InitialCondition(1.0, 1.0), 200)
        assert ratio_periodicity_residual(trace, 2) > 1e-6


class TestEffectivePotential:
    def test_constant_nonlocal_gives_constant_w(self):
        trace = floquet_solution(U05, LAT, 4.0, "growing", 60)
        profile = effective_potential(trace, U05, LAT)
        w = profile.w[profile.defined]
        assert np.max(np.abs(w + 2.0)) <= 1e-9

    def test_local_potential_unchanged(self):
        trace = propagate(P2, LAT, 0.3, InitialCondition(1.0, 0.4), 40)
        profile = effective_potential(trace, P2, LAT)
        for n in range(1, 40):
            if profile.defined[n]:
                assert profile.w[n] == P2.v_at(n)

    def test_mixed_periodic_residuals(self):
        trace = floquet_solution(MIXED, LAT, 2.0, "growing", 80)
        profile = effective_potential(trace, MIXED, LAT)
        assert effective_potential_periodicity_residual(profile, 2) <= 1e-8
        assert effective_consistency_residual(profile, trace, LAT) <= 1e-9

    def test_generic_gap_trace_not_periodic(self):
        # mixing the growing and decaying branches spoils ratio periodicity
        trace = propagate(MIXED, LAT, 2.0, InitialCondition(1.0, 1.0), 80)
        profile = effective_potential(trace, MIXED, LAT)
        assert effective_potential_periodicity_residual(profile, 2) > 1e-6

    def test_reduction_preserves_classification(self):
        # the folded local potential sees the same gap at the same energy
        for pot, energy in ((MIXED, 2.0), (U05, 4.0)):
            trace = floquet_solution(pot, LAT, energy, "growing", 40 * pot.m)
            profile = effective_potential(trace, pot, LAT)
            m = pot.m
            start = m  # first full period away from the boundary site
            window = profile.w[start : start + m]
            assert profile.defined[start : start + m].all()
            local = PeriodicPotential.local(window)
            assert classify_energy(local, LAT, energy).kind == SpectralClass.FORBIDDEN

    def test_insufficient_defined_pairs(self):
        trace = floquet_solution(MIXED, LAT, 2.0, "growing", 3)
        profile = effective_potential(trace, MIXED, LAT)
        with pytest.raises(InsufficientDataError):
            effective_potential_periodicity_residual(profile, 2)


class TestIcSweep:
    def test_free_gap_direction(self):
        result = ic_sweep(FREE, LAT, 5.0, 180, 200)
        expected = math.atan2((-3.0 + math.sqrt(5.0)) / 2.0, 1.0) % math.pi
        assert abs(result.alpha_star - expected) <= math.pi / 180.0
        growths = np.array(result.growths)
        best = np.argmin(growths)
        others = np.delete(growths, best)
        assert growths[best] < others.min()  # strict, isolated minimiser

    def test_allowed_zone_flat(self):
        result = ic_sweep(FREE, LAT, 2.0, 36, 200)
        assert max(abs(g) for g in result.growths) <= 1e-6

    def test_period_two_matches_eigendirection(self):
        pair = floquet_multipliers(P2, LAT, 2.0)
        small = (
            pair.dir_plus if abs(pair.lambda_plus) < abs(pair.lambda_minus) else pair.dir_minus
        )
        expected = math.atan2(small[0], small[1]) % math.pi
        result = ic_sweep(P2, LAT, 2.0, 180, 400)
        assert abs(result.alpha_star - expected) <= math.pi / 180.0

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            ic_sweep(FREE, LAT, 5.0, 4, 100)

    def test_generic_growth_matches_kappa(self):
        # away from the special direction the tail grows at kappa per site
        for pot, energy in ((FREE, 5.0), (P2, 2.0)):
            kappa = floquet_multipliers(pot, LAT, energy).kappa_site
            trace = propagate(pot, LAT, energy, InitialCondition(1.0, 1.0), 1000)
            assert abs(tail_growth_rate(trace, pot.m) - kappa) <= 1e-4


class TestBeatEstimate:
    def test_near_upper_edge(self):
        trace = propagate(FREE, LAT, 3.9, InitialCondition(0.0, 1.0), 200)
        est = beat_estimate(trace, FREE, LAT)
        assert len(est.minima_positions) >= 2
        assert est.l_pred == pytest.approx(9.892897111263832, rel=1e-9)
        assert abs(est.l_est - 9.89) <= 0.989

    def test_band_centre_has_no_beats(self):
        trace = propagate(FREE, LAT, 2.0, InitialCondition(0.0, 1.0), 200)
        with pytest.raises(InsufficientDataError):
            beat_estimate(trace, FREE, LAT)

    def test_period_two_beats(self):
        trace = propagate(P2, LAT, 3.1, InitialCondition(0.0, 1.0), 600)
        est = beat_estimate(trace, P2, LAT)
        periods = est.l_est / 2.0
        assert abs(periods - 6.7946) <= 0.15 * 6.7946

    def test_beats_compress_away_from_edge(self):
        lengths = []
        for energy in (3.9, 3.7, 3.5):
            trace = propagate(FREE, LAT, energy, InitialCondition(0.0, 1.0), 400)
            lengths.append(beat_estimate(trace, FREE, LAT).l_est)
        assert lengths[0] > lengths[1] > lengths[2]

    def test_forbidden_energy_rejected(self):
        trace = propagate(FREE, LAT, 5.0, InitialCondition(0.0, 1.0), 200)
        with pytest.raises(OutsideAllowedZoneError):
            beat_estimate(trace, FREE, LAT)


def loop_pair(trace, n):
    """(psi(n), psi(n+1)) at the scale of s(n), one site at a time."""
    return trace.s[n], trace.s[n + 1] * math.exp(trace.ell[n + 1] - trace.ell[n])


class TestArrayFormsMatchSiteLoops:
    # a floquet trace changes scale every period, a generic one at rescales
    @pytest.fixture(
        params=[
            lambda: floquet_solution(MIXED, LAT, 2.0, "decaying", 120),
            lambda: propagate(MIXED, LAT, 2.0, InitialCondition(1.0, 1.0), 400),
        ]
    )
    def trace(self, request):
        trace = request.param()
        assert len(np.unique(trace.ell)) > 3
        return trace

    def test_knots(self, trace):
        expected = []
        for n in range(trace.n_sites):
            a, b = loop_pair(trace, n)
            if a == 0.0:
                expected.append(float(n))
            elif a * b < 0.0:
                expected.append(n + a / (a - b))
        assert list(knots(trace).positions) == expected

    def test_ratio_angles(self, trace):
        expected = [
            math.atan2(b, a) % math.pi
            for a, b in (loop_pair(trace, n) for n in range(trace.n_sites))
        ]
        assert np.allclose(ratio_sequence(trace), expected, rtol=0.0, atol=1e-14)

    def test_effective_potential(self, trace):
        profile = effective_potential(trace, MIXED, LAT)
        assert profile.defined[1:-1].all()
        for n in range(1, trace.n_sites):
            up = loop_pair(trace, n)[1] / trace.s[n]
            down = trace.s[n - 1] * math.exp(trace.ell[n - 1] - trace.ell[n]) / trace.s[n]
            w = MIXED.v_at(n) + MIXED.u_at(n) * up + MIXED.u_at(n - 1) * down
            assert profile.w[n] == w

    def test_neighbours(self, trace):
        below, above = trace.neighbours()
        step = [trace.ell[k + 1] - trace.ell[k] for k in range(trace.n_sites)]
        expected_below = [trace.s[k] * math.exp(-x) for k, x in enumerate(step)]
        expected_above = [trace.s[k + 1] * math.exp(x) for k, x in enumerate(step)]
        assert below.tobytes() == np.array(expected_below).tobytes()
        assert above.tobytes() == np.array(expected_above).tobytes()

    @pytest.mark.parametrize("period", [1, 2, 3, 7, 400])
    def test_envelope(self, trace, period):
        w = max(period, 2)
        la = trace.log_abs()
        positions, values = [], []
        for start in range(0, len(la) - w + 1, w):
            positions.append(start + 0.5 * (w - 1))
            values.append(float(np.max(la[start : start + w])))
        got_positions, got_values = envelope(trace, period)
        assert got_positions.tobytes() == np.asarray(positions, dtype=float).tobytes()
        assert got_values.tobytes() == np.asarray(values, dtype=float).tobytes()


def loop_knot_periodicity_residual(xs, m):
    """knot_periodicity_residual with one Python step per knot and window."""
    if len(xs) == 0:
        return 0.0
    anchor = xs[0] - 1e-6
    n_windows = int((xs[-1] - anchor) // m)
    if n_windows < 1:
        return math.inf
    counts = [0] * n_windows
    for x in xs:
        idx = int((x - anchor) // m)
        if idx < n_windows:
            counts[idx] += 1
    k = counts[0]
    if any(c != k for c in counts) or k == 0 or len(xs) <= k:
        return math.inf
    return max(abs(xs[j + k] - xs[j] - m) for j in range(len(xs) - k))


def test_knot_periodicity_residual_matches_loop():
    rng = np.random.default_rng(7)
    lists = [(), (0.5,), (0.5, 1.5), (0.25, 0.75, 2.25, 2.75, 4.25, 4.74)]
    for m in (1, 2, 3):
        base = np.sort(rng.uniform(0.0, m, 3))
        for periods in (1, 2, 5, 30):
            xs = (base + m * np.arange(periods)[:, None]).ravel()
            lists.append(tuple(xs + rng.normal(0.0, 1e-9, xs.shape)))
            lists.append(tuple(np.sort(rng.uniform(0.0, m * periods, 3 * periods))))
    pot_energies = [(P2, 2.0, "growing"), (MIXED, 2.0, "decaying"), (FREE, 5.0, "plus")]
    for pot, energy, branch in pot_energies:
        lists.append(knots(floquet_solution(pot, LAT, energy, branch, 300)).positions)
    lists.append(knots(propagate(MIXED, LAT, 0.5, InitialCondition(1.0, 0.3), 300)).positions)
    for xs in lists:
        for m in (1, 2, 3):
            got = knot_periodicity_residual(KnotList(positions=xs), m)
            assert got == loop_knot_periodicity_residual(list(xs), m), (xs, m)
