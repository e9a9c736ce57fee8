import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import latticeband.bands
from latticeband import (
    BandEdge,
    InitialCondition,
    LatticeSpec,
    Monodromy,
    NumericalError,
    OutsideAllowedZoneError,
    PeriodicPotential,
    SpectralClass,
    ZoneClass,
    bloch_phase,
    classify_energy,
    diagram_from_edges,
    dirichlet_spectrum,
    find_band_edges,
    floquet_multipliers,
    monodromy,
    propagate,
    validate_potential,
)
from latticeband.bands import TOL_EDGE

FREE = PeriodicPotential.free()
P2 = PeriodicPotential.local([1.0, -1.0])
LAT = LatticeSpec()


def random_potential(rng, m):
    return PeriodicPotential(
        v=tuple(rng.normal(size=m)), u=tuple(rng.uniform(-0.4, 0.4, size=m))
    )


class TestMonodromy:
    def test_free_single_site(self):
        m = monodromy(FREE, LAT, 1.0)
        assert (m.t11, m.t12, m.t21, m.t22) == (1.0, -1.0, 1.0, 0.0)
        assert m.disc == 1.0

    def test_free_general_step(self):
        lat = LatticeSpec(delta=0.5)
        m = monodromy(FREE, lat, 1.0)
        assert m.t11 == 2.0 - 0.25 * 1.0  # 2 - d^2 E
        assert m.t12 == -1.0

    def test_period_two_discriminant(self):
        # product of [[1-E,-1],[1,0]] and [[3-E,-1],[1,0]] gives trace (2-E)^2 - 3
        assert monodromy(P2, LAT, 2.0).disc == pytest.approx(-3.0, abs=1e-14)
        for energy in (-1.0, 0.3, 2.5, 4.8):
            assert monodromy(P2, LAT, energy).disc == pytest.approx(
                (2.0 - energy) ** 2 - 3.0, rel=1e-13, abs=1e-13
            )

    def test_nonlocal_single_site(self):
        pot = PeriodicPotential(v=(0.0,), u=(0.5,))
        m = monodromy(pot, LAT, 2.0)
        assert m.t11 == 0.0  # a = (2 - E)/(1 - u) = 0
        assert m.disc == 0.0

    def test_determinant_telescopes(self):
        rng = np.random.default_rng(5)
        for m_len in (1, 2, 3, 5):
            pot = random_potential(rng, m_len)
            for energy in rng.uniform(-2.0, 6.0, size=5):
                assert abs(monodromy(pot, LAT, float(energy)).det - 1.0) <= 1e-10

    def test_energy_array_matches_scalar_calls(self, monkeypatch):
        # m <= 4 walks arrays as floats, m >= 5 stacks the two states; a block
        # of 8 elements forces one phase per block of a, and the 2006 lanes
        # split m = 5 and m = 50 into a full and a partial block by default
        far = np.array([1e300, -1e300, np.inf, -np.inf, np.nan])
        energies = np.concatenate([np.linspace(-3.0, 7.0, 2001), far])
        cases = [
            (random_potential(np.random.default_rng(50), m), energies)
            for m in (1, 2, 3, 4, 5, 8, 20, 50)
        ]
        # the period map overflows at both ends of [-3, 7] for this potential
        rng = np.random.default_rng(7)
        long = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, 500)), u=tuple(rng.uniform(-0.2, 0.2, 500))
        )
        cases.append((long, np.concatenate([[-3.0, 7.0, 2.0], far])))
        for pot, lanes in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                scalar = [monodromy(pot, LAT, float(e)) for e in lanes]
            for block in (latticeband.bands._BLOCK, 8):
                monkeypatch.setattr(latticeband.bands, "_BLOCK", block)
                assert_lanes_match(pot, lanes, scalar)
                assert_lanes_match(pot, lanes[:6].reshape(3, 2).T, scalar[:6:2] + scalar[1:6:2])
                assert_lanes_match(pot, np.array(lanes[-1]), scalar[-1:])
                assert_lanes_match(pot, lanes[:0], [])


def assert_lanes_match(pot, energies, scalar):
    """monodromy over an energy array equals, lane by lane in C order, the
    given scalar monodromies, compared with tobytes."""
    with np.errstate(over="ignore", invalid="ignore"):
        batch = monodromy(pot, LAT, energies)
    for name in ("t11", "t12", "t21", "t22"):
        lanes = np.broadcast_to(getattr(batch, name), np.shape(energies))
        expected = np.array([getattr(mono, name) for mono in scalar], dtype=float)
        assert np.ravel(lanes).tobytes() == expected.tobytes(), (pot.m, name, np.shape(energies))


class TestClassify:
    @pytest.mark.parametrize(
        "energy,kind",
        [
            (2.0, SpectralClass.ALLOWED),
            (5.0, SpectralClass.FORBIDDEN),
            (4.0, SpectralClass.EDGE),
            (0.0, SpectralClass.EDGE),
            (-0.5, SpectralClass.FORBIDDEN),
        ],
    )
    def test_free_lattice(self, energy, kind):
        assert classify_energy(FREE, LAT, energy).kind == kind


class TestFindBandEdges:
    def test_free_band(self):
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        edges = diagram.edge_energies()
        assert len(edges) == 2
        assert abs(edges[0] - 0.0) <= 1e-10
        assert abs(edges[1] - 4.0) <= 1e-10
        assert [z.kind for z in diagram.zones] == [
            SpectralClass.FORBIDDEN,
            SpectralClass.ALLOWED,
            SpectralClass.FORBIDDEN,
        ]

    def test_period_two_gap(self):
        diagram = find_band_edges(P2, LAT, -2.0, 6.0)
        expected = [2.0 - math.sqrt(5.0), 1.0, 3.0, 2.0 + math.sqrt(5.0)]
        got = diagram.edge_energies()
        assert len(got) == 4
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-8
        kinds = [z.kind for z in diagram.zones]
        assert kinds == [
            SpectralClass.FORBIDDEN,
            SpectralClass.ALLOWED,
            SpectralClass.FORBIDDEN,
            SpectralClass.ALLOWED,
            SpectralClass.FORBIDDEN,
        ]

    def test_edges_satisfy_discriminant_condition(self):
        for pot in (FREE, P2, PeriodicPotential(v=(0.2, -0.3, 0.5), u=(0.1, 0.0, -0.2))):
            diagram = find_band_edges(pot, LAT, -2.0, 7.0, tol=1e-10)
            for edge in diagram.edges:
                d = monodromy(pot, LAT, edge.energy).disc
                assert abs(abs(d) - 2.0) <= 1e-6  # |D'| <= ~1e4 here, 10*tol in energy

    @pytest.mark.parametrize("u_const", [0.0, 0.25, 0.5])
    def test_constant_nonlocal_width_law(self, u_const):
        # band is [2 - 2|1-u|, 2 + 2|1-u|]: the coupling sets the width
        pot = PeriodicPotential(v=(0.0,), u=(u_const,))
        diagram = find_band_edges(pot, LAT, -1.0, 5.0)
        width = 2.0 * abs(1.0 - u_const)
        edges = diagram.edge_energies()
        assert len(edges) == 2
        assert abs(edges[0] - (2.0 - width)) <= 1e-8
        assert abs(edges[1] - (2.0 + width)) <= 1e-8

    def test_local_shift_translates_edges(self):
        # adding a constant to v moves every edge by that constant
        shift = 0.7
        base = find_band_edges(P2, LAT, -2.0, 6.0).edge_energies()
        shifted_pot = PeriodicPotential.local([1.0 + shift, -1.0 + shift])
        shifted = find_band_edges(shifted_pot, LAT, -2.0 + shift, 6.0 + shift)
        for a, b in zip(base, shifted.edge_energies()):
            assert abs((a + shift) - b) <= 1e-8

    def test_closed_gap_reported_as_degenerate_edge(self):
        # the free chain written as period 2 has a tangential |D| = 2 touch at
        # band centre but no gap there: a double eigenvalue of the theta = pi
        # Bloch matrix
        pot = PeriodicPotential.free(2)
        diagram = find_band_edges(pot, LAT, -1.0, 5.0)
        assert abs(diagram.edge_energies()[0] - 0.0) <= 1e-10
        assert abs(diagram.edge_energies()[1] - 4.0) <= 1e-10
        assert diagram.degenerate_edges == (BandEdge(energy=2.0, level=-2.0),)
        assert len(diagram.zones) == 3  # the touch does not split the band

    def test_narrow_gap_recovered_without_warning(self):
        # gap half-width 1e-4 is far below the grid step; the scan range is
        # offset so no grid point falls inside the dip
        pot = PeriodicPotential.local([1e-4, -1e-4])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            diagram = find_band_edges(pot, LAT, -1.0015, 5.0)
        assert caught == []
        inner = [e for e in diagram.edge_energies() if 1.9 < e < 2.1]
        assert len(inner) == 2
        assert abs(inner[0] - (2.0 - 1e-4)) <= 1e-8
        assert abs(inner[1] - (2.0 + 1e-4)) <= 1e-8

    def test_edge_on_grid_point_keeps_grid_value(self):
        # E = 1 and E = 3 are grid points of [-2, 6] and D(E) = -2 there exactly
        diagram = find_band_edges(P2, LAT, -2.0, 6.0)
        assert -2.0 + 750 * (8.0 / 2000) == 1.0
        assert {1.0, 3.0} <= set(diagram.edge_energies())

    def test_every_edge_found_where_the_grid_scan_lost_some(self):
        # a grid scan of this potential found 88 of its 100 edges and 43 of
        # its 49 hard-wall levels: the rest come in pairs inside one grid cell
        pot = random_potential(np.random.default_rng(2), 50)
        diagram = find_band_edges(pot, LAT, -4.0, 8.0)
        assert diagram.degenerate_edges == ()
        # independent Bloch matrices: periodic and antiperiodic chains
        off = np.array(pot.u) - 1.0
        expected = []
        for phase in (1.0, -1.0):
            h = np.diag(2.0 + np.array(pot.v)) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
            h[0, -1] = h[-1, 0] = phase * off[-1]
            expected += np.linalg.eigvalsh(h).tolist()
        got = diagram.edge_energies()
        assert len(got) == 100
        assert np.max(np.abs(np.array(got) - np.sort(expected))) <= 1e-8
        assert len(dirichlet_spectrum(pot, LAT, -4.0, 8.0)) == 49

    def test_dropped_eigenvalue_is_numerical_error(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a)[1:])
        with pytest.raises(NumericalError, match="do not match"):
            find_band_edges(P2, LAT, -2.0, 6.0)
        with pytest.raises(NumericalError):
            dirichlet_spectrum(PeriodicPotential.local([1.0, -1.0, 0.5]), LAT, -2.0, 6.0)

    def test_period_map_overflow_is_numerical_error(self):
        # at m = 1000 the transfer-matrix product overflows inside the gaps,
        # next to the eigenvalues: the scan names the overflow, with no numpy
        # warning, instead of miscounting its roots
        rng = np.random.default_rng(7)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, 1000)), u=tuple(rng.uniform(-0.2, 0.2, 1000))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="period map overflows"):
                find_band_edges(pot, LAT, -3.0, 7.0)
            with pytest.raises(NumericalError, match="period map overflows"):
                dirichlet_spectrum(pot, LAT, -3.0, 7.0)

    def test_overflow_far_from_every_edge_is_harmless(self):
        # at m = 500 D overflows only towards the ends of [-3, 7]
        rng = np.random.default_rng(7)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, 500)), u=tuple(rng.uniform(-0.2, 0.2, 500))
        )
        table = latticeband.bands.validate_potential(pot, LAT)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(latticeband.bands._period_map(table, -3.0).disc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diagram = find_band_edges(pot, LAT, -3.0, 7.0)
        assert len(diagram.edges) == 1000
        assert diagram.zones[0].kind == diagram.zones[-1].kind == SpectralClass.FORBIDDEN

    def test_batched_bisection_matches_scalar(self):
        def scalar_bisect(f, lo, hi, f_lo, tol):
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

        pot = random_potential(np.random.default_rng(8), 8)
        table = latticeband.bands.validate_potential(pot, LAT)

        def disc(energy):
            return latticeband.bands._period_map(table, energy).disc

        # every sign-changing cell of a 2001-point grid, both levels
        xs = [-3.0 + i * 0.005 for i in range(2001)]
        gs = disc(np.array(xs)).tolist()
        brackets = [
            (xs[i], xs[i + 1], gs[i] - level, level)
            for level in (2.0, -2.0)
            for i in range(2000)
            if (gs[i] - level) * (gs[i + 1] - level) < 0.0
        ]
        assert len(brackets) == 16
        for tol in (1e-10, 0.0):
            got = latticeband.bands._bisect(disc, *zip(*brackets), tol)
            want = [
                scalar_bisect(lambda x, level=level: disc(x) - level, lo, hi, f_lo, tol)
                for lo, hi, f_lo, level in brackets
            ]
            assert got == want

    def test_two_eigenvalues_in_one_cell(self):
        # grid 0, 0.1, ..., 1.5: both roots of (E - 0.55)^2 - w^2 lie in the
        # cell [0.5, 0.6], where the function is positive at both ends
        roots = latticeband.bands._roots

        def parabola(shift):
            return lambda e: (e - 0.55) ** 2 + shift

        eig = np.array([0.55 - 1e-3, 0.55 + 1e-3])
        # negative at the eigenvalues' midpoint: split there, two edges
        found, degenerate = roots(parabola(-1e-6), [(0.0, eig)], 0.0, 0.1, 16, 1e-12)
        assert degenerate == []
        assert [e for e, _ in found] == pytest.approx([0.549, 0.551], abs=1e-11)
        # positive there (a touch): one degenerate edge at the mean
        eig = np.array([0.55 - 1e-15, 0.55 + 1e-15])
        found, degenerate = roots(parabola(1e-30), [(0.0, eig)], 0.0, 0.1, 16, 1e-12)
        assert found == [] and degenerate == [(0.5 * (eig[0] + eig[1]), 0.0)]

    def test_eigenvalue_one_cell_off(self):
        # the root of E - 0.3 + 1e-15 lies just below the grid point 0.3, in
        # the cell [0.2, 0.3]; eigenvalues rounded into either neighbouring
        # cell still find it there
        x3 = 0.0 + 3 * 0.1
        for eig in (x3 + 1e-15, x3 - 1e-15, 0.3 - 2e-15):
            found, _ = latticeband.bands._roots(
                lambda e: e - x3 + 1e-15, [(0.0, np.array([eig]))], 0.0, 0.1, 16, 0.0
            )
            assert len(found) == 1
            assert 0.0 + 2 * 0.1 < found[0][0] < x3
            assert abs(found[0][0] - (x3 - 1e-15)) <= 1e-16

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            find_band_edges(FREE, LAT, 2.0, 1.0)
        with pytest.raises(ValueError):
            find_band_edges(FREE, LAT, 0.0, 1.0, grid_points=4)
        for grid_points in (1, 3):
            with pytest.raises(ValueError):
                dirichlet_spectrum(P2, LAT, 0.0, 1.0, grid_points=grid_points)

    def test_validates_potential_once(self, monkeypatch):
        calls = []
        validate = latticeband.bands.validate_potential

        def counting(pot, lat):
            calls.append(1)
            return validate(pot, lat)

        monkeypatch.setattr(latticeband.bands, "validate_potential", counting)
        pot = random_potential(np.random.default_rng(50), 50)
        find_band_edges(pot, LAT, -3.0, 7.0)
        assert len(calls) == 1

    def test_zero_tolerance_terminates(self):
        # bisection stops at float spacing instead of looping forever
        code = (
            "from latticeband import LatticeSpec, PeriodicPotential, find_band_edges\n"
            "d = find_band_edges(PeriodicPotential.local([1, -1]), LatticeSpec(), -2, 6, tol=0.0)\n"
            "print(len(d.edges))\n"
        )
        cp = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "4"

    def test_kind_at(self):
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        assert diagram.kind_at(2.0) == SpectralClass.ALLOWED
        assert diagram.kind_at(-0.5) == SpectralClass.FORBIDDEN
        with pytest.raises(ValueError):
            diagram.kind_at(7.0)


class TestFloquetMultipliers:
    def test_free_gap_values(self):
        pair = floquet_multipliers(FREE, LAT, 5.0)
        assert pair.lambda_minus == pytest.approx((-3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
        assert pair.lambda_plus == pytest.approx((-3.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)
        assert pair.kappa_site == pytest.approx(
            math.log((3.0 + math.sqrt(5.0)) / 2.0), rel=1e-12
        )
        assert not pair.degenerate

    def test_product_is_one(self):
        rng = np.random.default_rng(9)
        for m_len in (1, 2, 3):
            pot = random_potential(rng, m_len)
            for energy in rng.uniform(-2.0, 6.0, size=6):
                pair = floquet_multipliers(pot, LAT, float(energy))
                assert abs(pair.lambda_plus * pair.lambda_minus - 1.0) <= 1e-9

    def test_allowed_zone_unit_modulus(self):
        pair = floquet_multipliers(FREE, LAT, 2.0)
        assert pair.lambda_plus == pytest.approx(1j, abs=1e-12)
        assert pair.lambda_minus == pytest.approx(-1j, abs=1e-12)
        assert abs(abs(pair.lambda_plus) - 1.0) <= 1e-9
        assert pair.kappa_site == 0.0

    def test_kappa_positive_iff_forbidden(self):
        for energy in (-0.5, 0.5, 2.0, 3.5, 4.5):
            pair = floquet_multipliers(FREE, LAT, energy)
            forbidden = classify_energy(FREE, LAT, energy).kind == SpectralClass.FORBIDDEN
            assert (pair.kappa_site > 0.0) == forbidden

    def test_period_two_gap_growth(self):
        pair = floquet_multipliers(P2, LAT, 2.0)
        per_period = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert pair.kappa_site == pytest.approx(per_period / 2.0, rel=1e-12)

    def test_edge_degenerate_flag(self):
        pair = floquet_multipliers(FREE, LAT, 4.0)
        assert pair.degenerate
        assert pair.lambda_plus == pair.lambda_minus == -1.0
        assert pair.dir_plus == pair.dir_minus

    def test_directions_propagate_as_eigenvectors(self):
        # propagating dir = (psi1, psi0) one period multiplies it by lambda
        pair = floquet_multipliers(P2, LAT, 2.0)
        for lam, direction in (
            (pair.lambda_plus, pair.dir_plus),
            (pair.lambda_minus, pair.dir_minus),
        ):
            psi0, psi1 = direction[1], direction[0]
            trace = propagate(P2, LAT, 2.0, InitialCondition(psi0, psi1), 4)
            psi = trace.reconstructed()
            assert psi[2] == pytest.approx(lam * psi[0], rel=1e-10, abs=1e-12)
            assert psi[3] == pytest.approx(lam * psi[1], rel=1e-10, abs=1e-12)


class TestBlochPhase:
    def test_values(self):
        assert bloch_phase(FREE, LAT, 2.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
        assert bloch_phase(FREE, LAT, 3.9) == pytest.approx(math.acos(-0.95), rel=1e-12)
        assert bloch_phase(FREE, LAT, 4.0) == pytest.approx(math.pi, rel=1e-12)

    def test_forbidden_zone_rejected(self):
        with pytest.raises(OutsideAllowedZoneError):
            bloch_phase(FREE, LAT, 5.0)


def reference_period_map(table, energy):
    """The period map with one table.alpha call per site."""
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    for r in range(table.m):
        a, b = table.alpha(r, energy), table.beta[r]
        t11, t12, t21, t22 = (a * t11 + b * t21, a * t12 + b * t22, t11, t12)
    return Monodromy(t11=t11, t12=t12, t21=t21, t22=t22)


def reference_queries(pot, lat, energy):
    """repr of monodromy, classify_energy, floquet_multipliers and bloch_phase,
    computed on a freshly built (uncached) coefficient table."""
    table = validate_potential.__wrapped__(pot, lat)
    mono = reference_period_map(table, energy)
    d = mono.disc
    kind = latticeband.bands._zone_kind(d, TOL_EDGE)
    phase = math.acos(min(1.0, max(-1.0, d / 2.0))) if abs(d) <= 2.0 + TOL_EDGE else None
    pair = latticeband.bands._multipliers(table, mono, energy, TOL_EDGE)
    return repr(mono), repr(ZoneClass(kind=kind, disc=d)), repr(pair), phase


def queries(pot, lat, energy):
    zc = classify_energy(pot, lat, energy)
    phase = None if zc.kind == SpectralClass.FORBIDDEN else bloch_phase(pot, lat, energy)
    pair = floquet_multipliers(pot, lat, energy)
    return repr(monodromy(pot, lat, energy)), repr(zc), repr(pair), phase


class TestMemoisedPointQueries:
    def test_queries_match_the_uncached_alpha_loop(self):
        rng = np.random.default_rng(90)
        for m in rng.integers(1, 51, size=10).tolist():
            v, u = rng.uniform(-1.0, 1.0, m), rng.uniform(-0.2, 0.2, m)
            lat = LatticeSpec(float(rng.choice([1.0, 0.5, 0.8])))
            inv = lat.inv_step_sq
            lo, hi = -1.5 * inv - 1.5, 4.0 * inv + 1.5
            diagram = find_band_edges(PeriodicPotential(v=v, u=u), lat, lo, hi)
            energies = np.linspace(lo, hi, 61).tolist() + [
                e.energy for e in diagram.edges + diagram.degenerate_edges
            ]
            for energy in energies:
                # an equal but distinct potential: the table comes from the cache
                pot = PeriodicPotential(v=tuple(v), u=tuple(u))
                mono, zc, pair, phase = queries(pot, lat, energy)
                ref_mono, ref_zc, ref_pair, ref_phase = reference_queries(pot, lat, energy)
                assert (mono, zc, pair) == (ref_mono, ref_zc, ref_pair), (m, energy)
                if ref_phase is None:
                    with pytest.raises(OutsideAllowedZoneError):
                        bloch_phase(pot, lat, energy)
                else:
                    assert phase.hex() == ref_phase.hex(), (m, energy)

    @pytest.mark.parametrize(
        "warm,query",
        [(np.float64(0.6), 0.6), (0.6, np.float64(0.6))],
        ids=["numpy-then-float", "float-then-numpy"],
    )
    def test_step_type_does_not_leak_through_the_cache(self, warm, query):
        # LatticeSpec(np.float64(x)) == LatticeSpec(x) is one cache key, so the
        # table it holds must not carry the first caller's numpy scalars
        pot = random_potential(np.random.default_rng(91), 3)
        validate_potential.cache_clear()
        energies = (-1.0, 2.5, 3.0, 9.0)
        for energy in energies:
            queries(pot, LatticeSpec(warm), energy)
        for energy in energies:
            got = queries(pot, LatticeSpec(query), energy)
            assert got == reference_queries(pot, LatticeSpec(0.6), energy)
            pair = floquet_multipliers(pot, LatticeSpec(query), energy)
            for lam in (pair.lambda_plus, pair.lambda_minus):
                assert type(lam) in (float, complex)
            assert type(pair.kappa_site) is float
            assert type(classify_energy(pot, LatticeSpec(query), energy).disc) is float


class TestDirichletSpectrum:
    def test_single_site_period_is_empty(self):
        assert dirichlet_spectrum(FREE, LAT, -1.0, 5.0) == []

    def test_period_two_hand_values(self):
        # t21(E) = 2 + v[0] - E: one interior site carrying the first phase
        assert dirichlet_spectrum(P2, LAT, -2.0, 6.0) == [pytest.approx(3.0, abs=1e-10)]
        swapped = PeriodicPotential.local([-1.0, 1.0])
        assert dirichlet_spectrum(swapped, LAT, -2.0, 6.0) == [
            pytest.approx(1.0, abs=1e-10)
        ]

    def test_matches_hard_wall_block_eigenvalues(self):
        # independent oracle: eigenvalues of the (m-1)-site chain at phases 0..m-2
        rng = np.random.default_rng(21)
        pot = random_potential(rng, 5)
        inv = 1.0
        diag = np.array([2.0 * inv + pot.v[i] for i in range(4)])
        off = np.array([pot.u[i] - inv for i in range(3)])
        block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = sorted(np.linalg.eigvalsh(block))
        got = dirichlet_spectrum(pot, LAT, min(expected) - 1.0, max(expected) + 1.0)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-8

    def test_energies_sit_in_gap_closures(self):
        for pot in (P2, PeriodicPotential.local([-1.0, 1.0])):
            diagram = find_band_edges(pot, LAT, -2.0, 6.0)
            for energy in dirichlet_spectrum(pot, LAT, -2.0, 6.0):
                in_closure = any(
                    z.kind == SpectralClass.FORBIDDEN
                    and z.lo - 1e-8 <= energy <= z.hi + 1e-8
                    for z in diagram.zones
                )
                assert in_closure


class TestDiagramFromEdges:
    def test_reproduces_discriminant_classes(self):
        claimed = [2.0 - math.sqrt(5.0), 1.0, 3.0, 2.0 + math.sqrt(5.0)]
        diagram = diagram_from_edges(P2, LAT, -2.0, 6.0, claimed)
        assert diagram.kind_at(2.0) == SpectralClass.FORBIDDEN
        assert diagram.kind_at(0.5) == SpectralClass.ALLOWED

    def test_rejects_edges_outside_range(self):
        with pytest.raises(ValueError):
            diagram_from_edges(P2, LAT, 0.0, 2.0, [3.0])
