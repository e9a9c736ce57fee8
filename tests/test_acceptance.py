"""Acceptance suite: every release criterion, one test each.

Each test prints a PASS line with its measured numbers (visible with -s, or
via the one-line-per-test report of pytest -v). Runtime budgets are asserted
alongside the numeric tolerances.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from latticeband import (
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    SolutionTrace,
    SpectralClass,
    beat_estimate,
    cross_validate,
    dirichlet_spectrum,
    effective_consistency_residual,
    effective_potential,
    effective_potential_periodicity_residual,
    find_band_edges,
    floquet_multipliers,
    floquet_solution,
    ic_sweep,
    knot_periodicity_residual,
    knots,
    parse_scenario_file,
    propagate,
    ratio_periodicity_residual,
    run_scenario,
    stagger,
    tail_growth_rate,
)

FREE = PeriodicPotential.free()
P2 = PeriodicPotential.local([1.0, -1.0])
LAT = LatticeSpec()
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.budget}s"
            )
        return False


def load_trace(path, energy):
    """Rebuild a SolutionTrace from an emitted trace CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    s = np.array([float(r[1]) for r in rows])
    ell = np.array([float(r[2]) for r in rows])
    ic = InitialCondition(s[0] * math.exp(ell[0]), s[1] * math.exp(ell[1]))
    return SolutionTrace(energy=energy, ic=ic, n_sites=len(s) - 1, s=s, ell=ell)


def test_criterion_01_free_lattice_band():
    with Stopwatch(1.0) as sw:
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        edges = diagram.edge_energies()
        assert len(edges) == 2
        assert abs(edges[0] - 0.0) <= 1e-10
        assert abs(edges[1] - 4.0) <= 1e-10
    print(
        f"ACCEPTANCE 01 PASS: free band edges {edges[0]:.3e}, {edges[1]:.9f} "
        f"within 1e-10 ({sw.elapsed:.3f}s)"
    )


def test_criterion_02_fig1_regimes(tmp_path):
    with Stopwatch(1.0) as sw:
        scenario = parse_scenario_file(SCENARIO_DIR / "fig1.scenario")
        run_scenario(scenario, out_dir=tmp_path)

        # E = 0: linear solution, vanishing second difference
        psi0 = load_trace(tmp_path / "fig1_E0.csv", 0.0).reconstructed()
        dd0 = np.max(np.abs(np.diff(psi0, 2)))
        assert dd0 <= 1e-12

        # E = 4: staggered-linear, (-1)^n psi has vanishing second difference
        psi4 = load_trace(tmp_path / "fig1_E4.csv", 4.0).reconstructed()
        signs = np.where(np.arange(len(psi4)) % 2 == 0, 1.0, -1.0)
        dd4 = np.max(np.abs(np.diff(signs * psi4, 2)))
        assert dd4 <= 1e-12

        # E = -0.5 and 4.5: tail growth per site equals arccosh(|E - 2|/2)
        growth_errs = {}
        for energy, name in ((-0.5, "fig1_E-0.5.csv"), (4.5, "fig1_E4.5.csv")):
            trace = load_trace(tmp_path / name, energy)
            expected = math.acosh(abs(energy - 2.0) / 2.0)
            got = tail_growth_rate(trace, 1)
            growth_errs[energy] = abs(got - expected)
            assert growth_errs[energy] <= 1e-6

        # E = 3.9: at least two envelope minima, spacing within 10% of 9.89
        trace39 = load_trace(tmp_path / "fig1_E3.9.csv", 3.9)
        est = beat_estimate(trace39, FREE, LAT)
        assert len(est.minima_positions) >= 2
        assert abs(est.l_est - 9.89) <= 0.1 * 9.89
    print(
        f"ACCEPTANCE 02 PASS: dd(E=0)={dd0:.1e}, dd(E=4)={dd4:.1e}, "
        f"growth errs {growth_errs[-0.5]:.1e}/{growth_errs[4.5]:.1e}, "
        f"beat {est.l_est:.3f} vs 9.89 ({sw.elapsed:.3f}s)"
    )


def test_criterion_03_gap_opening_with_oracle():
    with Stopwatch(10.0) as sw:
        diagram = find_band_edges(P2, LAT, -2.0, 6.0)
        expected = [2.0 - math.sqrt(5.0), 1.0, 3.0, 2.0 + math.sqrt(5.0)]
        got = diagram.edge_energies()
        assert len(got) == 4
        max_err = max(abs(a - b) for a, b in zip(got, expected))
        assert max_err <= 1e-8
        gap_zones = [
            z
            for z in diagram.zones
            if z.kind == SpectralClass.FORBIDDEN and -0.1 < z.lo and z.hi < 5.0
        ]
        assert len(gap_zones) == 1
        assert abs(gap_zones[0].lo - 1.0) <= 1e-8 and abs(gap_zones[0].hi - 3.0) <= 1e-8
        report = cross_validate(diagram, P2, LAT)
        assert report.all_passed
    print(
        f"ACCEPTANCE 03 PASS: gap (1,3), outer edges 2-+sqrt5, max edge error "
        f"{max_err:.1e}, oracle {len(report.checks)} checks pass ({sw.elapsed:.3f}s)"
    )


def test_criterion_04_nonlocal_width_law():
    with Stopwatch(5.0) as sw:
        worst = 0.0
        for u_const in (0.0, 0.25, 0.5):
            pot = PeriodicPotential(v=(0.0,), u=(u_const,))
            edges = find_band_edges(pot, LAT, -1.0, 5.0).edge_energies()
            half_width = 2.0 * abs(1.0 - u_const)
            assert len(edges) == 2
            worst = max(
                worst,
                abs(edges[0] - (2.0 - half_width)),
                abs(edges[1] - (2.0 + half_width)),
            )
            assert worst <= 1e-8
    print(
        f"ACCEPTANCE 04 PASS: band = [2-2|1-u|, 2+2|1-u|] for u in (0, .25, .5), "
        f"worst edge error {worst:.1e} ({sw.elapsed:.3f}s)"
    )


def test_criterion_05_effective_potential_reduction():
    with Stopwatch(1.0) as sw:
        u05 = PeriodicPotential(v=(0.0,), u=(0.5,))
        trace = floquet_solution(u05, LAT, 4.0, "growing", 60)
        profile = effective_potential(trace, u05, LAT)
        w_err = float(np.max(np.abs(profile.w[profile.defined] + 2.0)))
        assert w_err <= 1e-9

        mixed = PeriodicPotential(v=(1.0, -1.0), u=(0.3, 0.1))
        gap_trace = floquet_solution(mixed, LAT, 2.0, "growing", 80)
        gap_profile = effective_potential(gap_trace, mixed, LAT)
        per_res = effective_potential_periodicity_residual(gap_profile, 2)
        cons_res = effective_consistency_residual(gap_profile, gap_trace, LAT)
        assert per_res <= 1e-8
        assert cons_res <= 1e-9
    print(
        f"ACCEPTANCE 05 PASS: W = -2 within {w_err:.1e}; mixed periodicity "
        f"{per_res:.1e}, consistency {cons_res:.1e} ({sw.elapsed:.3f}s)"
    )


def test_criterion_06_floquet_structure_in_gaps():
    cases = [
        (FREE, 5.0),
        (PeriodicPotential(v=(0.0,), u=(0.5,)), 4.0),
        (P2, 2.0),
        (PeriodicPotential(v=(1.0, -1.0), u=(0.3, 0.1)), 2.0),
    ]
    with Stopwatch(1.0) as sw:
        worst_rel, worst_knot, worst_ratio = 0.0, 0.0, 0.0
        for pot, energy in cases:
            m = pot.m
            trace = floquet_solution(pot, LAT, energy, "growing", 12 * m)
            lam = floquet_multipliers(pot, LAT, energy)
            lam_big = max(
                abs(lam.lambda_plus), abs(lam.lambda_minus)
            )
            la = trace.log_abs()
            rel = max(
                abs((la[n + m] - la[n]) - math.log(lam_big))
                for n in range(len(la) - m)
            )
            worst_rel = max(worst_rel, rel)
            worst_knot = max(worst_knot, knot_periodicity_residual(knots(trace), m))
            worst_ratio = max(worst_ratio, ratio_periodicity_residual(trace, m))
        assert worst_rel <= 1e-8
        assert worst_knot <= 1e-8
        assert worst_ratio <= 1e-8
    print(
        f"ACCEPTANCE 06 PASS: multiplier relation {worst_rel:.1e}, knot residual "
        f"{worst_knot:.1e}, ratio residual {worst_ratio:.1e} ({sw.elapsed:.3f}s)"
    )


def test_criterion_07_staggering_symmetry_suite():
    rng = np.random.default_rng(2024)
    with Stopwatch(1.0) as sw:
        worst = 0.0
        for _ in range(20):
            # dyadic grid keeps the mirror energy 4 - E exactly representable,
            # so the two propagations round identically step by step
            energy = round(float(rng.uniform(-1.0, 5.0)) * 2.0**30) / 2.0**30
            p, q = float(rng.normal()), float(rng.normal())
            if p == 0.0 and q == 0.0:
                continue
            n = 300
            lhs = stagger(propagate(FREE, LAT, energy, InitialCondition(p, q), n))
            rhs = propagate(FREE, LAT, lhs.energy, InitialCondition(p, -q), n)
            top = np.maximum(lhs.log_abs(), rhs.log_abs())
            top[~np.isfinite(top)] = 0.0
            vl = lhs.s * np.exp(lhs.ell - top)
            vr = rhs.s * np.exp(rhs.ell - top)
            scale = max(1.0, float(np.max(np.abs(vl))), float(np.max(np.abs(vr))))
            worst = max(worst, float(np.max(np.abs(vl - vr))) / scale)
        assert worst <= 1e-12
    print(
        f"ACCEPTANCE 07 PASS: 20 random mirror identities, worst relative "
        f"deviation {worst:.1e} ({sw.elapsed:.3f}s)"
    )


def test_criterion_08_ic_sweep_uniqueness():
    with Stopwatch(2.0) as sw:
        diffs = {}
        for pot, energy, n_sites in ((FREE, 5.0, 200), (P2, 2.0, 400)):
            pair = floquet_multipliers(pot, LAT, energy)
            small_dir = (
                pair.dir_plus
                if abs(pair.lambda_plus) < abs(pair.lambda_minus)
                else pair.dir_minus
            )
            expected = math.atan2(small_dir[0], small_dir[1]) % math.pi
            result = ic_sweep(pot, LAT, energy, 180, n_sites)
            growths = np.array(result.growths)
            best = int(np.argmin(growths))
            others = np.delete(growths, best)
            assert growths[best] < others.min()  # exactly one minimising class
            diff = abs(result.alpha_star - expected) % math.pi
            diff = min(diff, math.pi - diff)
            diffs[energy] = diff
            assert diff <= math.pi / 180.0
    print(
        f"ACCEPTANCE 08 PASS: unique decaying direction, angle errors "
        f"{diffs[5.0]:.2e} (free E=5) and {diffs[2.0]:.2e} (period-2 E=2), "
        f"grid pi/180 = {math.pi/180:.2e} ({sw.elapsed:.3f}s)"
    )


def test_criterion_09_dirichlet_containment():
    with Stopwatch(1.0) as sw:
        spectra = {}
        for pot in (P2, PeriodicPotential.local([-1.0, 1.0])):
            diagram = find_band_edges(pot, LAT, -2.0, 6.0)
            spectrum = dirichlet_spectrum(pot, LAT, -2.0, 6.0)
            assert spectrum
            spectra[pot.v] = spectrum
            for energy in spectrum:
                assert any(
                    z.kind == SpectralClass.FORBIDDEN
                    and z.lo - 1e-8 <= energy <= z.hi + 1e-8
                    for z in diagram.zones
                )
    print(
        f"ACCEPTANCE 09 PASS: hard-wall levels {spectra} each lie in a gap "
        f"closure within 1e-8 ({sw.elapsed:.3f}s)"
    )


def test_criterion_10_determinism(tmp_path):
    scenario_files = sorted(SCENARIO_DIR.glob("*.scenario"))
    assert scenario_files
    checked = 0
    for path in scenario_files:
        s = parse_scenario_file(path)
        out_a = tmp_path / "a" / path.stem
        out_b = tmp_path / "b" / path.stem
        run_scenario(s, out_dir=out_a)
        run_scenario(s, out_dir=out_b)
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{path.stem}/{name} differs between runs"
            )
            checked += 1
    print(
        f"ACCEPTANCE 10 PASS: {checked} output files byte-identical across two "
        f"runs of {len(scenario_files)} scenarios"
    )
