"""Seeded workload inputs, the jobs that run them, and their reference checks.

A workload is a list of scenario documents generated from the seed plus the
jobs built on them. Each job has a timed part (`run`, calls into latticeband
only) and untimed parts: `finish` turns the raw result into a digest and
work counts, `check` compares it with the independent references in
reference.py and returns (status, reason):

    "ok"    the output agrees with the references;
    "fail"  the program raised or exited with an unexpected code;
    "wrong" a number or verdict the program returned disagrees with its
            reference.

Two known limits of the program are counted, not failed, because the
program's documented method cannot avoid them: a grid scan misses roots that
come in same-level pairs inside one grid cell (`bands.edges_missed`,
`bands.levels_missed`), and the counting oracle answers Mixed, which is no
verdict, on some zones the references confirm (`oracle.false_mismatches`).
Everything else a scan or the oracle returns must match the references.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import latticeband as lb
from latticeband import cli

import reference as ref

EDGE_TOL = 1e-8  # band edges and hard-wall levels, absolute
GRID_POINTS = 2001  # the energy grid of every band scan (the program's default)
RESIDUAL_TOL = 1e-9  # recurrence and folding residuals, relative
FIG1_ENERGIES = (-0.5, -0.1, 0.0, 0.7, 2.0, 3.9, 4.0, 4.5)
ORACLE_RANGE = (-3.0, 7.0)

OK = ("ok", "")


def _sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def _hexes(values) -> str:
    return ",".join(float(x).hex() for x in values)


def _pot(sc):
    return sc.potential(), sc.lattice()


def _edge_mismatch(got, want, what):
    got, want = np.sort(np.asarray(got, float)), np.asarray(want, float)
    if len(got) != len(want):
        return ("wrong", f"{what}: {len(got)} found, reference has {len(want)}")
    worst = float(np.max(np.abs(got - want))) if len(got) else 0.0
    if worst > EDGE_TOL:
        return ("wrong", f"{what}: off by {worst:.3g}")
    return None


def _grid_scan_check(found, want, lo, hi, what, grid_points=GRID_POINTS):
    """Compare a grid scan's roots with the reference; (status or None, missed).

    found and want map a level (D = +-2, or one key for hard-wall levels) to
    root energies. Each found root must match its own reference root within
    EDGE_TOL. A scan on grid_points uniform points sees a root only through a
    sign change between neighbouring points, so it cannot see an even number
    of same-level roots inside one grid cell: such roots may be missing and
    are counted. Any other missing root is wrong.
    """
    step = (hi - lo) / (grid_points - 1)
    missed = []
    for level in set(want) | set(found):
        got = np.sort(np.asarray(found.get(level, ()), float))
        i = 0
        for w in np.sort(_in_range(want.get(level, ()), lo, hi)):
            if i < len(got) and got[i] < w - EDGE_TOL:
                break
            if i < len(got) and abs(got[i] - w) <= EDGE_TOL:
                i += 1
            else:
                missed.append((level, int((w - lo) // step)))
        if i < len(got):
            return ("wrong", f"{what}: {float(got[i])!r} matches no reference root"), 0
    lost = [cell for cell, n in Counter(missed).items() if n % 2]
    if lost:
        level, k = lost[0]
        return ("wrong", f"{what}: lost a root the grid brackets near E = {lo + k * step:.6g}"), 0
    return None, len(missed)


def _by_level(edges):
    out = {}
    for e in edges:
        out.setdefault(e.level, []).append(e.energy)
    return out


def _in_range(values, lo, hi):
    values = np.asarray(values)
    return values[(values > lo) & (values < hi)]


def _bad_residual(value, what):
    if not value <= RESIDUAL_TOL:
        return ("wrong", f"{what} residual {value:.3g}")
    return None


# -- jobs ------------------------------------------------------------------


@dataclass
class Job:
    name: str
    docs: tuple  # scenario file names this job reads
    scenarios: list = field(default_factory=list)  # parsed, filled by bind()
    paths: list = field(default_factory=list)
    out: Path | None = None

    def bind(self, scenarios, paths, out):
        self.scenarios, self.paths, self.out = scenarios, paths, out

    def prepare(self):
        """Untimed, before each run."""

    def run(self):
        """Timed: the calls into latticeband; returns the raw result."""
        raise NotImplementedError

    def finish(self, raw):
        """Untimed: (value, digest, stats, detail)."""
        raise NotImplementedError

    def check(self, value):
        raise NotImplementedError


class SpectraJob(Job):
    """Band edges, hard-wall levels and point queries for one potential."""

    def run(self):
        sc = self.scenarios[0]
        pot, lat = _pot(sc)
        lo, hi = sc.energies.start, sc.energies.stop
        diagram = lb.find_band_edges(pot, lat, lo, hi, grid_points=GRID_POINTS)
        levels = lb.dirichlet_spectrum(pot, lat, lo, hi, grid_points=GRID_POINTS)
        queries = []
        for energy in sc.energy_list():
            zc = lb.classify_energy(pot, lat, energy)
            pair = lb.floquet_multipliers(pot, lat, energy)
            phase = (
                lb.bloch_phase(pot, lat, energy)
                if zc.kind is not lb.SpectralClass.FORBIDDEN
                else math.nan
            )
            queries.append((energy, zc.kind.value, zc.disc, pair, phase))
        return diagram, levels, queries

    def finish(self, raw):
        diagram, levels, queries = raw
        edges = sorted(
            e.energy for e in diagram.edges + diagram.degenerate_edges
        )
        edge_digest = _sha(_hexes(edges))
        flat = []
        for energy, kind, disc, pair, phase in queries:
            flat.append(f"{kind}:{_hexes([energy, disc, pair.kappa_site, phase])}")
            flat.append(repr((pair.lambda_plus, pair.lambda_minus)))
        digest = _sha(edge_digest + _hexes(levels) + ";".join(flat))
        (_, edges_missed), (_, levels_missed) = self._scans(diagram, levels)
        detail = {
            "edges": len(edges), "edges_sha256": edge_digest,
            "edges_missed": edges_missed, "levels_missed": levels_missed,
        }
        stats = Counter({"bands.edges_missed": edges_missed, "bands.levels_missed": levels_missed})
        return raw, digest, stats, detail

    def _scans(self, diagram, levels):
        sc = self.scenarios[0]
        v, u, d = sc.v, sc.u, sc.delta
        lo, hi = sc.energies.start, sc.energies.stop
        return (
            _grid_scan_check(
                _by_level(diagram.edges + diagram.degenerate_edges),
                ref.bloch_edges_by_level(v, u, d), lo, hi, "band edges",
            ),
            _grid_scan_check(
                {0: levels}, {0: ref.dirichlet_levels(v, u, d)}, lo, hi, "hard-wall levels"
            ),
        )

    def check(self, value):
        diagram, levels, queries = value
        sc = self.scenarios[0]
        v, u, d = sc.v, sc.u, sc.delta
        (bad, _), (bad_levels, _) = self._scans(diagram, levels)
        if bad or bad_levels:
            return bad or bad_levels
        ref_edges = ref.bloch_edges(v, u, d)
        energies = np.array([q[0] for q in queries])
        d_ref = ref.discriminant(v, u, d, energies)
        inside = ref.allowed(ref_edges, energies)
        gap_to_edge = np.min(np.abs(energies[:, None] - ref_edges[None, :]), axis=1)
        for (energy, kind, disc, pair, phase), dr, ins, dist in zip(
            queries, d_ref, inside, gap_to_edge
        ):
            scale = max(1.0, abs(dr))
            if abs(disc - dr) > 1e-9 * scale:
                return ("wrong", f"D({energy:.6g}) = {disc:.12g}, reference {dr:.12g}")
            if dist > 1e-7 and (kind == "Allowed") != bool(ins):
                return ("wrong", f"E = {energy:.6g} classified {kind}")
            lam_sum = complex(pair.lambda_plus) + complex(pair.lambda_minus)
            lam_prod = complex(pair.lambda_plus) * complex(pair.lambda_minus)
            if abs(lam_sum - dr) > 1e-9 * scale or abs(lam_prod - 1.0) > 1e-9:
                return ("wrong", f"multipliers at E = {energy:.6g} are not roots of x^2 - Dx + 1")
            if not math.isnan(phase) and abs(math.cos(phase) - max(-1.0, min(1.0, dr / 2))) > 1e-9:
                return ("wrong", f"Bloch phase at E = {energy:.6g}")
        return OK


class OracleScanJob(Job):
    """find_band_edges then cross_validate: the `validate` path as a library call."""

    def run(self):
        sc = self.scenarios[0]
        pot, lat = _pot(sc)
        tol = sc.tolerances
        diagram = lb.find_band_edges(
            pot, lat, sc.energies.start, sc.energies.stop,
            grid_points=tol.grid_points, tol=tol.root_tol, tol_edge=tol.tol_edge,
        )
        try:
            report = lb.cross_validate(diagram, pot, lat, margin=tol.margin)
        except lb.ValidationMismatchError as exc:
            report = exc.report
        return diagram, report

    def finish(self, raw):
        diagram, report = raw
        (_, missed), (_, false_mismatches) = self._verdicts(diagram, report)
        stats = Counter(
            {
                "bands.edges_missed": missed,
                "oracle.zones": len(diagram.zones),
                "oracle.zones_checked": len(report.checks),
                "oracle.false_mismatches": false_mismatches,
            }
        )
        edges = sorted(e.energy for e in diagram.edges + diagram.degenerate_edges)
        rows = ";".join(f"{_hexes([c.lo, c.hi])}:{c.expected}:{c.verdict}" for c in report.checks)
        edge_digest = _sha(_hexes(edges))
        detail = {
            "edges_sha256": edge_digest,
            "edges_missed": missed,
            "zones": len(diagram.zones),
            "zones_checked": len(report.checks),
            "false_mismatches": false_mismatches,
        }
        return raw, _sha(edge_digest + rows), stats, detail

    def _verdicts(self, diagram, report):
        """((status or None, edges missed), (status or None, Mixed verdicts on confirmed zones)).

        A checked segment that holds a reference edge the scan missed is not
        judged: the oracle rejecting it is a correct catch. On every other
        segment the claimed class must match the reference, and the oracle's
        verdict must match it too or be Mixed, which is no verdict.
        """
        sc = self.scenarios[0]
        lo, hi = sc.energies.start, sc.energies.stop
        by_level = ref.bloch_edges_by_level(sc.v, sc.u, sc.delta)
        scan = _grid_scan_check(
            _by_level(diagram.edges + diagram.degenerate_edges), by_level, lo, hi,
            "band edges", sc.tolerances.grid_points,
        )
        ref_edges = ref.bloch_edges(sc.v, sc.u, sc.delta)
        mixed = 0
        for c in report.checks:
            if len(_in_range(ref_edges, c.lo, c.hi)):
                continue
            want = "Band" if ref.allowed(ref_edges, [0.5 * (c.lo + c.hi)])[0] else "Gap"
            if c.expected != want:
                return scan, (("wrong", f"zone ({c.lo:.6g}, {c.hi:.6g}) claimed {c.expected}, reference {want}"), 0)
            if c.verdict == "Mixed":
                mixed += 1
            elif c.verdict != want:
                return scan, (("wrong", f"oracle calls zone ({c.lo:.6g}, {c.hi:.6g}) {c.verdict}, reference {want}"), 0)
        return scan, (None, mixed)

    def check(self, value):
        (bad, _), (bad_verdict, _) = self._verdicts(*value)
        return bad or bad_verdict or OK


class CliJob(Job):
    """`latticeband run|validate <doc> --out DIR` through cli.main, in process."""

    command = "run"
    expected_exit = 0

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        argv = [self.command, str(self.paths[0]), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def finish(self, raw):
        files = {p.name: p.read_bytes() for p in sorted(self.out.glob("*.csv"))}
        shas = {name: _sha(data) for name, data in files.items()}
        stats = Counter({f"cli.exit_code.{raw}": 1})
        stats["scenario.csv_bytes"] = sum(len(data) for data in files.values())
        digest = _sha(f"exit={raw};" + ";".join(f"{k}={v}" for k, v in shas.items()))
        return (raw, files), digest, stats, {"exit": raw, "csv_sha256": shas}

    def check(self, value):
        code, files = value
        if code != self.expected_exit:
            return ("fail", f"exit code {code}, expected {self.expected_exit}")
        return self.check_files(self.scenarios[0], files) or OK

    def check_files(self, sc, files):
        return None


def _table(data: bytes) -> np.ndarray:
    return np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1, ndmin=2)


def _series(sc, files, kind):
    for energy in sc.energy_list():
        name = f"{kind}_E{energy:g}.csv"
        if name not in files:
            raise KeyError(name)
        yield energy, _table(files[name])


class TraceCli(CliJob):
    """trace and fig1 documents: every emitted trace must satisfy the recurrence."""

    def check_files(self, sc, files):
        for energy, t in _series(sc, files, sc.kind):
            if len(t) != sc.n_sites + 1:
                return ("wrong", f"{len(t)} rows at E = {energy:g}")
            res = ref.recurrence_residual(t[:, 1], t[:, 2], energy, sc.v, sc.u, sc.delta)
            bad = _bad_residual(res, f"trace E = {energy:g}")
            if bad:
                return bad
        return None


class FloquetCli(CliJob):
    def check_files(self, sc, files):
        for energy, t in _series(sc, files, "floquet"):
            lam, _ = ref.floquet_branch(sc.v, sc.u, sc.delta, energy, sc.branch == "growing")
            if abs(t[0, 4] - lam) > 1e-9 * abs(lam):
                return ("wrong", f"multiplier {t[0, 4]!r}, reference {lam!r}")
            if abs(t[0, 5] - math.log(max(abs(lam), 1 / abs(lam))) / sc.m) > 1e-9:
                return ("wrong", "kappa_site")
            res = ref.recurrence_residual(t[:, 1], t[:, 2], energy, sc.v, sc.u, sc.delta)
            bad = _bad_residual(res, "floquet trace")
            if bad:
                return bad
        return None


class EffectiveCli(CliJob):
    def check_files(self, sc, files):
        for energy, t in _series(sc, files, "effective"):
            w_ref, amp = ref.effective_profile(sc.v, sc.u, sc.delta, energy, sc.branch == "growing")
            n = t[:, 0].astype(int)
            use = (t[:, 2] == 1) & (amp[n % sc.m] > 1e-6 * amp.max())
            err = np.abs(t[use, 1] - w_ref[n[use] % sc.m])
            if not use.any() or err.max() > 1e-8 * max(1.0, np.abs(w_ref).max()):
                return ("wrong", "effective potential differs from the reference fold")
        return None


class SweepCli(CliJob):
    def check_files(self, sc, files):
        for energy, t in _series(sc, files, "sweep"):
            alpha_star = t[int(np.argmin(t[:, 1])), 0]
            want = ref.decaying_angle(sc.v, sc.u, sc.delta, energy)
            dist = abs(alpha_star - want) % math.pi
            if min(dist, math.pi - dist) > 1.5 * math.pi / sc.angles:
                return ("wrong", f"alpha* {alpha_star:.6g}, decaying direction {want:.6g}")
        return None


class BeatCli(CliJob):
    def check_files(self, sc, files):
        for energy, t in _series(sc, files, "beat"):
            d = float(ref.discriminant(sc.v, sc.u, sc.delta, energy))
            theta = math.acos(max(-1.0, min(1.0, d / 2)))
            l_pred = math.pi * sc.m / min(theta, math.pi - theta)
            if abs(t[0, 2] - l_pred) > 1e-9 * l_pred:
                return ("wrong", f"L_pred {t[0, 2]!r}, reference {l_pred!r}")
            if abs(t[0, 1] - l_pred) > 0.1 * l_pred:
                return ("wrong", f"L_est {t[0, 1]!r} vs L_pred {l_pred!r}")
        return None


class WrongEdgesCli(CliJob):
    """`validate` with deliberately wrong claimed edges: exit 3 is correct."""

    command = "validate"
    expected_exit = 3

    def check_files(self, sc, files):
        rows = list(csv.DictReader(io.StringIO(files["validate_report.csv"].decode())))
        if all(r["pass"] == "1" for r in rows):
            return ("wrong", "exit 3 without a failing zone in the report")
        return None


def _trace_residual(sc, energy, tr):
    return _bad_residual(
        ref.recurrence_residual(tr.s, tr.ell, energy, sc.v, sc.u, sc.delta), "trace"
    )


class DiagnosticsJob(Job):
    """Long-trace gap diagnostics: knots, ratios, folding, residual, growth."""

    def run(self):
        sc = self.scenarios[0]
        pot, lat = _pot(sc)
        energy, n = sc.energy_list()[0], sc.n_sites
        tr = lb.floquet_solution(pot, lat, energy, sc.branch, n)
        knots = lb.knots(tr)
        profile = lb.effective_potential(tr, pot, lat)
        gen = lb.propagate(pot, lat, energy, lb.InitialCondition(*sc.ic), n)
        return {
            "trace": tr,
            "knots": knots.positions,
            "knot_res": lb.knot_periodicity_residual(knots, pot.m),
            "ratio_res": lb.ratio_periodicity_residual(tr, pot.m),
            "profile": profile,
            "fold_res": lb.effective_consistency_residual(profile, tr, lat),
            "w_period_res": lb.effective_potential_periodicity_residual(profile, pot.m),
            "generic": gen,
            "recurrence_res": lb.recurrence_residual(gen, pot, lat),
            "growth": lb.tail_growth_rate(gen, pot.m),
        }

    def finish(self, raw):
        scalars = [raw[k] for k in ("knot_res", "ratio_res", "fold_res", "w_period_res",
                                    "recurrence_res", "growth")]
        digest = _sha(
            _hexes(scalars) + _hexes(raw["knots"]) + _hexes(raw["profile"].w)
            + _sha(raw["trace"].s.tobytes()) + _sha(raw["generic"].s.tobytes())
        )
        return raw, digest, Counter(), {"knots": len(raw["knots"])}

    def check(self, r):
        sc = self.scenarios[0]
        energy = sc.energy_list()[0]
        tr, gen, profile = r["trace"], r["generic"], r["profile"]
        want = ref.knot_positions(tr.s, tr.ell)
        if len(want) != len(r["knots"]) or (
            len(want) and np.max(np.abs(np.asarray(r["knots"]) - want)) > 1e-9
        ):
            return ("wrong", "knot positions")
        if abs(r["ratio_res"] - ref.ratio_periodicity(tr.s, tr.ell, sc.m)) > 1e-12:
            return ("wrong", "ratio periodicity residual")
        fold = ref.effective_consistency(profile.w, profile.defined, tr.s, tr.ell, energy, sc.delta)
        bad = _bad_residual(fold, "folding") or _bad_residual(r["fold_res"], "reported folding")
        bad = bad or _trace_residual(sc, energy, tr) or _trace_residual(sc, energy, gen)
        bad = bad or _bad_residual(r["recurrence_res"], "reported recurrence")
        if bad:
            return bad
        if not r["w_period_res"] <= 1e-8:
            return ("wrong", f"folded potential not periodic ({r['w_period_res']:.3g})")
        lam, _ = ref.floquet_branch(sc.v, sc.u, sc.delta, energy)
        kappa = math.log(abs(lam)) / sc.m
        if abs(r["growth"] - kappa) > 1e-3 * kappa:
            return ("wrong", f"tail growth {r['growth']:.6g}, reference {kappa:.6g}")
        return OK


class ProbeJob(Job):
    """About 0.1 s spread over every layer, so no layer's trace reads zero.

    docs: a small floquet document (run through the CLI; its potential and
    gap energy also drive the library calls) and a period-1 band-scan
    document whose diagram is cross-validated.
    """

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        sc, sc1 = self.scenarios
        pot, lat = _pot(sc)
        energy, n = sc.energy_list()[0], sc.n_sites
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(self.paths[0]), "--out", str(self.out)])
        tr = lb.propagate(pot, lat, energy, lb.InitialCondition(*sc.ic), n)
        sweep = lb.ic_sweep(pot, lat, energy, 8, n)
        profile = lb.effective_potential(
            lb.floquet_solution(pot, lat, energy, sc.branch, n), pot, lat
        )
        levels = lb.dirichlet_spectrum(pot, lat, sc1.energies.start, sc1.energies.stop)
        pot1, lat1 = _pot(sc1)
        diagram = lb.find_band_edges(pot1, lat1, sc1.energies.start, sc1.energies.stop)
        try:
            report = lb.cross_validate(diagram, pot1, lat1)
        except lb.ValidationMismatchError as exc:
            report = exc.report
        return code, tr, lb.recurrence_residual(tr, pot, lat), sweep, profile, levels, diagram, report

    def finish(self, raw):
        code, tr, res, sweep, profile, levels, diagram, report = raw
        stats = Counter(
            {
                f"cli.exit_code.{code}": 1,
                "scenario.csv_bytes": sum(p.stat().st_size for p in self.out.glob("*.csv")),
                "oracle.zones": len(diagram.zones),
                "oracle.zones_checked": len(report.checks),
                "oracle.false_mismatches": sum(not c.passed for c in report.checks),
            }
        )
        digest = _sha(
            f"{code};" + _hexes([res, sweep.alpha_star]) + _hexes(profile.w) + _hexes(levels)
            + _hexes(diagram.edge_energies()) + repr([c.verdict for c in report.checks])
            + _sha(tr.s.tobytes())
        )
        return raw, digest, stats, {"exit": code}

    def check(self, value):
        code, tr, res, sweep, profile, levels, diagram, report = value
        sc, sc1 = self.scenarios
        energy = sc.energy_list()[0]
        if code != 0:
            return ("fail", f"exit code {code}")
        bad = _trace_residual(sc, energy, tr) or _bad_residual(res, "reported recurrence")
        bad = bad or _edge_mismatch(levels, ref.dirichlet_levels(sc.v, sc.u, sc.delta), "levels")
        bad = bad or _edge_mismatch(
            diagram.edge_energies(), ref.bloch_edges(sc1.v, sc1.u, sc1.delta), "period-1 edges"
        )
        if bad:
            return bad
        if not report.all_passed:
            return ("fail", "oracle rejected the period-1 diagram")
        return OK


# -- seeded inputs ---------------------------------------------------------


def _random_potential(rng, m):
    return rng.uniform(-1.0, 1.0, m).tolist(), rng.uniform(-0.2, 0.2, m).tolist()


def _open_gap_potential(rng):
    """Period 2 with v of opposite signs, so the gap is at least ~0.8 wide."""
    return [rng.uniform(0.4, 1.0), -rng.uniform(0.4, 1.0)], rng.uniform(-0.2, 0.2, 2).tolist()


def _full_range(v, u, pad=0.25):
    """Gershgorin interval of the operator, padded: the scan covers every band."""
    diag, off = 2.0 + np.asarray(v), np.abs(np.asarray(u) - 1.0)
    return float(diag.min() - 2 * off.max() - pad), float(diag.max() + 2 * off.max() + pad)


def _widest_gap_mid(v, u):
    e = ref.bloch_edges(v, u)
    inner = [(e[k + 1] - e[k], 0.5 * (e[k] + e[k + 1])) for k in range(1, len(e) - 1, 2)]
    return float(max(inner)[1])


def _doc(kind, v, u, **fields):
    return {"kind": kind, "m": len(v), "v": v, "u": u, **fields}


def _unit_angle(rng):
    a = rng.uniform(0.0, math.pi)
    return {"psi0": math.cos(a), "psi1": math.sin(a)}


def _probe(rng, docs, jobs):
    v2, u2 = _open_gap_potential(rng)
    v1, u1 = _random_potential(rng, 1)
    docs["probe"] = _doc("floquet", v2, u2, energies=[_widest_gap_mid(v2, u2)],
                         n_sites=40, ic=_unit_angle(rng))
    lo, hi = _full_range(v1, u1)
    docs["probe_m1"] = _doc("band-scan", v1, u1, energies={"from": lo, "to": hi, "count": 16})
    jobs.append(ProbeJob("probe", ("probe", "probe_m1")))


def spectra(rng):
    docs, jobs = {}, []
    for i, m in enumerate((1, 1, 2, 2, 2, 8, 8, 8, 20, 50, 50, 50, 50, 50, 50)):
        v, u = _random_potential(rng, m)
        lo, hi = _full_range(v, u)
        name = f"spectra_{i}_m{m}"
        docs[name] = _doc("band-scan", v, u, energies={"from": lo, "to": hi, "count": 300})
        jobs.append(SpectraJob(name, (name,)))
    _probe(rng, docs, jobs)
    return docs, jobs


def oracle(rng):
    docs, jobs = {}, []
    span = {"from": ORACLE_RANGE[0], "to": ORACLE_RANGE[1], "count": 2001}
    for i, m in enumerate((2, 2, 8, 8, 20)):
        v, u = _random_potential(rng, m)
        name = f"oracle_{i}_m{m}"
        docs[name] = _doc("validate", v, u, energies=span)
        jobs.append(OracleScanJob(name, (name,)))
    for i in range(14):
        v, u = _open_gap_potential(rng)
        e = ref.bloch_edges(v, u)
        shift = min(rng.uniform(0.3, 0.5), 0.45 * (e[1] - e[0]), 0.45 * (e[3] - e[2]))
        claimed = [e[0], e[1] - shift, e[2] + shift, e[3]]
        name = f"wrong_edges_{i}"
        docs[name] = _doc("validate", v, u, energies=span, claimed_edges=claimed)
        jobs.append(WrongEdgesCli(name, (name,)))
    _probe(rng, docs, jobs)
    return docs, jobs


def solutions(rng):
    docs, jobs = {}, []
    v2, u2 = _open_gap_potential(rng)
    v8, u8 = _random_potential(rng, 8)
    v1, u1 = _random_potential(rng, 1)
    gap2, gap8 = _widest_gap_mid(v2, u2), _widest_gap_mid(v8, u8)
    beat = 2.0 + v1[0] + 2.0 * (1.0 - u1[0]) * math.cos(rng.uniform(0.25, 0.35))
    specs = [
        (TraceCli, _doc("fig1", v2, u2, energies=list(FIG1_ENERGIES), n_sites=400)),
        (TraceCli, _doc("trace", v2, u2, energies=[gap2], n_sites=100_000, ic=_unit_angle(rng))),
        (TraceCli, _doc("trace", v8, u8, energies=[gap8], n_sites=100_000, ic=_unit_angle(rng))),
        (SweepCli, _doc("sweep", v2, u2, energies=[gap2], n_sites=400, angles=180)),
        (SweepCli, _doc("sweep", v8, u8, energies=[gap8], n_sites=400, angles=180)),
        (FloquetCli, _doc("floquet", v8, u8, energies=[gap8], n_sites=2000)),
        (EffectiveCli, _doc("effective", v2, u2, energies=[gap2], n_sites=2000)),
        (BeatCli, _doc("beat", v1, u1, energies=[beat], n_sites=2000)),
        (DiagnosticsJob, _doc("floquet", v2, u2, energies=[gap2], n_sites=20_000, ic=_unit_angle(rng))),
        (DiagnosticsJob, _doc("floquet", v8, u8, energies=[gap8], n_sites=20_000, ic=_unit_angle(rng))),
    ]
    for i, (cls, doc) in enumerate(specs):
        name = f"{doc['kind']}_{i}_m{doc['m']}"
        docs[name] = doc
        jobs.append(cls(name, (name,)))
    _probe(rng, docs, jobs)
    return docs, jobs


WORKLOADS = {"spectra": spectra, "oracle": oracle, "solutions": solutions}

# Fewest measured passes that keep the reported tail (the 11th-slowest job
# sample) inside one job group whatever the pass count: the six m = 50 scans
# of spectra, the two long traces of solutions. One oracle pass has 20 jobs,
# which puts it in the middle of the fourteen wrong-edge runs. Solutions runs
# 8, not 6, so the tail is the 6th of 16 long-trace samples rather than the
# 2nd of 12, whose ten-seed spread was 0.09 to 0.13.
MIN_PASSES = {"spectra": 3, "oracle": 1, "solutions": 8}
