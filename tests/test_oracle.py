import math

import numpy as np
import pytest

from latticeband import (
    FiniteOperator,
    LatticeSpec,
    PeriodicPotential,
    ValidationMismatchError,
    cross_validate,
    diagram_from_edges,
    find_band_edges,
    sturm_count,
)
from latticeband import oracle

FREE = PeriodicPotential.free()
P2 = PeriodicPotential.local([1.0, -1.0])
LAT = LatticeSpec()


def dense_eigenvalues(op):
    J = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
    return np.linalg.eigvalsh(J)


class TestFiniteOperator:
    def test_free_chain_entries(self):
        op = FiniteOperator.from_potential(FREE, LAT, 5)
        assert op.diag.tolist() == [2.0] * 5
        assert op.off.tolist() == [-1.0] * 4

    def test_periodic_fill(self):
        pot = PeriodicPotential(v=(1.0, -1.0), u=(0.3, 0.1))
        op = FiniteOperator.from_potential(pot, LAT, 4)
        assert op.diag.tolist() == [3.0, 1.0, 3.0, 1.0]
        assert op.off.tolist() == [-0.7, -0.9, -0.7]


class TestSturmCount:
    def test_free_chain_hand_values(self):
        # eigenvalues are 2 - 2 cos(j pi / 101), j = 1..100
        op = FiniteOperator.from_potential(FREE, LAT, 100)
        assert type(sturm_count(op, 2.0)) is int
        assert sturm_count(op, 2.0) == 50
        assert sturm_count(op, -0.1) == 0
        assert sturm_count(op, 4.1) == 100

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 3):
            pot = PeriodicPotential(
                v=tuple(rng.normal(size=m)), u=tuple(rng.uniform(-0.4, 0.4, size=m))
            )
            op = FiniteOperator.from_potential(pot, LAT, 60)
            ev = dense_eigenvalues(op)
            for energy in rng.uniform(-2.0, 6.0, size=8):
                expected = int(np.sum(ev < energy))
                assert sturm_count(op, float(energy)) == expected

    def test_count_at_exact_eigenvalue(self):
        # a zero pivot is nudged negative, so hitting an eigenvalue exactly
        # still produces a count in range
        op = FiniteOperator.from_potential(FREE, LAT, 3)
        # spectrum: 2 - sqrt(2), 2, 2 + sqrt(2)
        assert sturm_count(op, 2.0) in (1, 2)

    def test_monotone_in_energy(self):
        op = FiniteOperator.from_potential(P2, LAT, 200)
        counts = [sturm_count(op, e) for e in np.linspace(-2.0, 6.0, 60)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] == 0 and counts[-1] == 200

    def test_edge_state_budget(self):
        # no gap segment may hold more than two size-independent states
        for n in (2000, 4000):
            op = FiniteOperator.from_potential(P2, LAT, n)
            inside = sturm_count(op, 2.95) - sturm_count(op, 1.05)
            assert inside <= 2

    def test_prefix_counts_match_shorter_chain(self):
        rng = np.random.default_rng(3)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, 5)), u=tuple(rng.uniform(-0.2, 0.2, 5))
        )
        energies = rng.uniform(-1.0, 5.0, 40)
        long = FiniteOperator.from_potential(pot, LAT, 1000)
        short = FiniteOperator.from_potential(pot, LAT, 500)
        head, whole = oracle._counts_batch(long, energies, prefix=500)
        assert head.tolist() == oracle._counts_batch(short, energies)[1].tolist()
        assert whole.tolist() == oracle._counts_batch(long, energies)[1].tolist()


class TestCrossValidate:
    def test_free_diagram_passes(self):
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        report = cross_validate(diagram, FREE, LAT)
        assert report.all_passed
        verdicts = [(c.expected, c.verdict) for c in report.checks]
        assert ("Gap", "Gap") in verdicts and ("Band", "Band") in verdicts

    def test_period_two_diagram_passes(self):
        diagram = find_band_edges(P2, LAT, -2.0, 6.0)
        report = cross_validate(diagram, P2, LAT)
        assert report.all_passed
        assert len(report.checks) == 5

    def test_corrupted_edge_is_named(self):
        claimed = [2.0 - math.sqrt(5.0), 1.5, 3.0, 2.0 + math.sqrt(5.0)]
        bad = diagram_from_edges(P2, LAT, -2.0, 6.0, claimed)
        with pytest.raises(ValidationMismatchError) as err:
            cross_validate(bad, P2, LAT)
        failing = [c for c in err.value.report.checks if not c.passed]
        assert len(failing) == 1
        check = failing[0]
        assert check.lo == pytest.approx(1.05, abs=1e-6)
        assert check.hi == pytest.approx(1.45, abs=1e-6)
        assert check.expected == "Band" and check.verdict == "Gap"

    def test_rejects_nonpositive_margin(self):
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        with pytest.raises(ValueError):
            cross_validate(diagram, FREE, LAT, margin=0.0)


def random_potential(seed, m):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, m)
    u = rng.uniform(-0.2, 0.2, m)
    return PeriodicPotential(v=tuple(v), u=tuple(u))


class TestEveryZoneChecked:
    @pytest.mark.parametrize("seed,m,n_zones", [(5, 20, 41), (0, 20, 41), (150, 50, 99)])
    def test_one_passing_check_per_zone(self, seed, m, n_zones):
        # seed 5 has a band 1.7e-3 wide, narrower than twice the margin; seed 0
        # a band 8.7e-7 wide, below the merge distance; seed 150 two bands
        # 7.45e-11 wide
        pot = random_potential(seed, m)
        diagram = find_band_edges(pot, LAT, -3.0, 7.0)
        assert len(diagram.zones) == n_zones
        report = cross_validate(diagram, pot, LAT)
        assert len(report.checks) == len(diagram.zones)
        for check, zone in zip(report.checks, diagram.zones):
            assert zone.lo < check.lo < check.hi < zone.hi
            assert check.passed

    def test_one_pivot_pass(self, monkeypatch):
        calls = []
        original = oracle._counts_batch

        def counting(*args, **kwargs):
            calls.append(args[0].n_sites)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "_counts_batch", counting)
        diagram = find_band_edges(P2, LAT, -2.0, 6.0)
        cross_validate(diagram, P2, LAT)
        assert calls == [4000]


class TestCountingFunctionAgreement:
    def test_edges_match_count_plateaus(self):
        # the normalised counting function reaches each gap plateau within
        # 2/N of the discriminant edge
        cases = [
            (FREE, -1.0, 5.0, {0.0: 0.0, 4.0: 1.0}),
            (P2, -2.0, 6.0, None),
        ]
        for pot, lo, hi, plateaus in cases:
            m = pot.m
            n = 2000 * m
            op = FiniteOperator.from_potential(pot, LAT, n)
            diagram = find_band_edges(pot, LAT, lo, hi)
            if plateaus is None:
                # period-2: plateaus at fractions 0, 1/2, 1 in edge order
                edges = diagram.edge_energies()
                plateaus = {edges[0]: 0.0, edges[1]: 0.5, edges[2]: 0.5, edges[3]: 1.0}
            for edge, fill in plateaus.items():
                delta = 2.0 / n
                below = sturm_count(op, edge - delta)
                above = sturm_count(op, edge + delta)
                target = fill * n
                # the plateau level is crossed (or touched, up to wall states)
                # inside the +-2/N window around the edge
                assert below - 2 <= target <= above + 2
