import math

import numpy as np
import pytest

from latticeband import (
    FiniteOperator,
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    ValidationMismatchError,
    cross_validate,
    diagram_from_edges,
    classify_energy,
    find_band_edges,
    knots,
    propagate,
    sturm_count,
)
from latticeband import oracle

FREE = PeriodicPotential.free()
P2 = PeriodicPotential.local([1.0, -1.0])
LAT = LatticeSpec()


def dense_eigenvalues(op):
    J = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
    return np.linalg.eigvalsh(J)


def reference_counts(op, energies, prefix=None):
    """The plain site-by-site pivot loop that the chunked kernel replaced."""
    energies = np.asarray(energies, dtype=float)
    counts = np.zeros(energies.shape, dtype=int)
    head = None
    off_sq = op.off**2
    with np.errstate(divide="ignore", over="ignore"):
        d = op.diag[0] - energies
        d = np.where(d == 0.0, -oracle._PIVOT_TINY, d)
        counts += d < 0.0
        for i in range(1, op.n_sites):
            if i == prefix:
                head = counts.copy()
            d = op.diag[i] - energies - off_sq[i - 1] / d
            d = np.where(d == 0.0, -oracle._PIVOT_TINY, d)
            counts += d < 0.0
    return (counts if head is None else head), counts


def assert_same_counts(op, energies, prefixes):
    for prefix in prefixes:
        head, whole = oracle._counts_batch(op, energies, prefix=prefix)
        ref_head, ref_whole = reference_counts(op, energies, prefix=prefix)
        assert np.array_equal(head, ref_head), prefix
        assert np.array_equal(whole, ref_whole), prefix


def zero_pivot_chain(n, sites):
    """Chain whose pivots at E = 0 are exactly zero at the given sites only."""
    diag, d = np.full(n, 3.0), math.inf
    for i in range(n):
        if i in sites:
            diag[i] = 1.0 / d  # d_i = diag_i - 1/d_{i-1} = 0
        d = diag[i] - 1.0 / d
        assert (d == 0.0) == (i in sites)
        d = -oracle._PIVOT_TINY if d == 0.0 else d
    return FiniteOperator(diag=diag, off=-np.ones(n - 1))


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


class TestKernelMatchesReference:
    """The chunked kernel gives the plain loop's counts, equal by array_equal."""

    @pytest.mark.parametrize("m", range(1, 51))
    def test_random_potentials_and_eigenvalue_probes(self, m):
        rng = np.random.default_rng(100 + m)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.0, 1.0, m)), u=tuple(rng.uniform(-0.2, 0.2, m))
        )
        n = 3 * oracle._CHUNK + 5 * m + 1
        op = FiniteOperator.from_potential(pot, LAT, n)
        ev = dense_eigenvalues(op)
        energies = np.concatenate([rng.uniform(-2.0, 6.0, 24), ev[:: max(1, n // 24)]])
        prefixes = (None, n, n - 1, oracle._CHUNK + 1, 2 * m + 1, 0)
        assert_same_counts(op, energies, prefixes)

    @pytest.mark.parametrize("energy", [1.0, 2.0, 3.0])
    def test_free_lattice_exact_zero_pivots(self, energy):
        # d_0 = 2 - E and d_1 = d_0 - 1/d_0: zero at E = 2 and at E = 1
        op = FiniteOperator.from_potential(FREE, LAT, 2 * oracle._CHUNK + 3)
        assert (2.0 - 2.0, (2.0 - 1.0) - 1.0 / (2.0 - 1.0)) == (0.0, 0.0)
        assert_same_counts(op, [energy, 0.5, energy], (None, 1, 2, oracle._CHUNK + 3))
        for head, ref in zip(oracle._counts_batch(op, energy), reference_counts(op, energy)):
            assert head.shape == () and np.array_equal(head, ref)

    @pytest.mark.parametrize("where", ["chunk-end", "chunk-start", "prefix-end", "prefix"])
    def test_zero_pivot_on_a_cut(self, where):
        chunk, prefix = oracle._CHUNK, 2 * oracle._CHUNK + 37
        site = {
            "chunk-end": chunk - 1,
            "chunk-start": chunk,
            "prefix-end": prefix - 1,
            "prefix": prefix,
        }[where]
        op = zero_pivot_chain(3 * chunk + 5, {0, site})
        assert_same_counts(op, [0.0, 0.25, 0.0, -1.0], (None, prefix, site, site + 1))

    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_chains_shorter_than_one_chunk(self, n_sites):
        op = FiniteOperator.from_potential(P2, LAT, n_sites)
        energies = np.concatenate([[1.0, 3.0, 2.0], dense_eigenvalues(op), [-5.0, 9.0]])
        assert_same_counts(op, energies, (None, 0, 1, 2, 3, 4))


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

    @pytest.mark.parametrize("k,shift", [(1, 1e-5), (2, -1e-5), (1, -1e-5), (2, 1e-5)])
    def test_resolves_an_edge_moved_by_1e5(self, k, shift):
        # the edges of v = (1, -1) are 2 -+ sqrt(5), 1 and 3; a 1e-5 sliver
        # claimed with the wrong class is caught on the 1000 m / 2000 m chains
        assert_moved_edge_caught(k, shift)

    @pytest.mark.parametrize("k,shift", [(1, 2e-6), (2, -2e-6), (1, -2e-6), (2, 2e-6)])
    def test_resolves_an_edge_moved_by_twice_the_merge_distance(self, k, shift):
        # recomputed edges within 1e-6 of a claimed one do not cut its zone,
        # so 2e-6 is the resolution cross_validate documents
        assert 2.0 * oracle._MERGE_DISTANCE == abs(shift)
        assert_moved_edge_caught(k, shift)

    def test_rejects_nonpositive_margin(self):
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        with pytest.raises(ValueError):
            cross_validate(diagram, FREE, LAT, margin=0.0)

    def test_rejects_nan_margin(self):
        # nan fails every comparison: it would build (nan, nan) probes
        diagram = find_band_edges(FREE, LAT, -1.0, 5.0)
        with pytest.raises(ValueError, match="margin must be positive"):
            cross_validate(diagram, FREE, LAT, margin=math.nan)


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


def assert_moved_edge_caught(k, shift):
    """Move inner edge k of v = (1, -1) by shift: only that sliver fails."""
    edges = list(find_band_edges(P2, LAT, -2.0, 6.0).edge_energies())
    assert edges[1:3] == [1.0, 3.0]
    moved = edges[k] + shift
    edges[k] = moved
    bad = diagram_from_edges(P2, LAT, -2.0, 6.0, edges)
    with pytest.raises(ValidationMismatchError) as err:
        cross_validate(bad, P2, LAT)
    failing = [c for c in err.value.report.checks if not c.passed]
    assert len(failing) == 1
    lo, hi = sorted((moved, moved - shift))
    assert lo < failing[0].lo < failing[0].hi < hi


class TestKnotsAgreeWithSturmCounts:
    """propagate and the oracle count the same levels by independent paths.

    psi(0) = 0, psi(1) = 1 is the solution of the hard-wall chain on sites
    1 .. N, whose phases start at 1: the chain of the potential rotated by
    one phase. Its sign changes up to site N + 1 count the levels below E
    when the hopping h = 1/d^2 - u is positive, and those above E when it is
    negative, because the off-diagonal -h then changes sign.
    """

    @staticmethod
    def assert_agree(pot, energy, n):
        trace = propagate(pot, LAT, energy, InitialCondition(0.0, 1.0), n + 1)
        count = sum(x > 0.0 for x in knots(trace).positions)
        rotated = PeriodicPotential(v=np.roll(pot.v, -1), u=np.roll(pot.u, -1))
        below = sturm_count(FiniteOperator.from_potential(rotated, LAT, n), energy)
        h_positive = 1.0 / LAT.delta**2 > pot.u[0]
        assert count == (below if h_positive else n - below), (pot, energy, n)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_random_short_chains(self, sign):
        rng = np.random.default_rng(21 if sign > 0 else 22)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            u = rng.uniform(-0.3, 0.3, m) if sign > 0 else rng.uniform(1.2, 1.8, m)
            pot = PeriodicPotential(v=tuple(rng.uniform(-1.0, 1.0, m)), u=tuple(u))
            energy = float(rng.uniform(-4.0, 8.0))
            self.assert_agree(pot, energy, int(rng.integers(2, 301)))

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_gap_energies_on_long_chains(self, m):
        # 2000 sites: the rescaled state recurs and propagate copies the cycle
        rng = np.random.default_rng(m)
        pot = PeriodicPotential(
            v=tuple(rng.uniform(-1.5, 1.5, m)), u=tuple(rng.uniform(-0.3, 0.3, m))
        )
        grid = np.linspace(-3.0, 7.0, 401).tolist()
        forbidden = [classify_energy(pot, LAT, e).kind.value == "Forbidden" for e in grid]
        # the middle grid point of every run of forbidden ones: one per gap
        # on the grid, the two outer ones included
        runs = np.flatnonzero(np.diff([False, *forbidden, False])).reshape(-1, 2)
        assert len(runs) == m + 1
        for start, stop in runs:
            self.assert_agree(pot, grid[(start + stop - 1) // 2], 2000)
