"""Spans and work counters around latticeband's public functions.

The tracer patches function objects in every latticeband module namespace
that binds them, so calls between modules (cross_validate calling
find_band_edges, ic_sweep calling propagate) are traced as well as the
benchmark's own calls. Spans stay in memory; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("core", "bands", "floquet", "oracle", "scenario", "cli")

# (module, function) -> span label. Several functions may share a label.
SPANS = {
    ("core", "propagate"): "core.propagate",
    ("core", "recurrence_residual"): "core.recurrence_residual",
    ("bands", "find_band_edges"): "bands.find_band_edges",
    ("bands", "dirichlet_spectrum"): "bands.dirichlet_spectrum",
    ("bands", "diagram_from_edges"): "bands.diagram_from_edges",
    ("bands", "classify_energy"): "bands.point_query",
    ("bands", "floquet_multipliers"): "bands.point_query",
    ("bands", "bloch_phase"): "bands.point_query",
    ("floquet", "floquet_solution"): "floquet.floquet_solution",
    ("floquet", "ic_sweep"): "floquet.ic_sweep",
    ("floquet", "effective_potential"): "floquet.effective_potential",
    ("floquet", "knots"): "floquet.analysis",
    ("floquet", "knot_periodicity_residual"): "floquet.analysis",
    ("floquet", "ratio_sequence"): "floquet.analysis",
    ("floquet", "ratio_periodicity_residual"): "floquet.analysis",
    ("floquet", "effective_consistency_residual"): "floquet.analysis",
    ("floquet", "effective_potential_periodicity_residual"): "floquet.analysis",
    ("floquet", "envelope"): "floquet.analysis",
    ("floquet", "tail_growth_rate"): "floquet.analysis",
    ("floquet", "mean_growth_rate"): "floquet.analysis",
    ("floquet", "beat_estimate"): "floquet.analysis",
    ("oracle", "cross_validate"): "oracle.cross_validate",
    ("oracle", "classify_interval"): "oracle.classify_interval",
    ("scenario", "parse_scenario"): "scenario.parse",
    ("scenario", "parse_scenario_file"): "scenario.parse",
    ("scenario", "run_scenario"): "scenario.run",
    ("cli", "main"): "cli.main",
}

# Hot inner functions: counted, not timed, so tracing stays cheap.
COUNTS = {
    ("core", "validate_potential"): "core.validate_potential.calls",
    ("bands", "monodromy"): "bands.disc_evals",
    ("oracle", "_counts_batch"): "oracle.pivots",
}

JOB = "bench.job"


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, job name, label, start, end)
        self.counts = Counter()
        self.evals_in = Counter()  # discriminant evaluations by enclosing span label
        self.missing = []
        self._stack = []  # open (span id, label)
        self._next_id = 0
        self._job = None
        self._patched = []
        self.clock = time.perf_counter  # run.Sampler.clock during timed runs

    # -- spans -----------------------------------------------------------
    def open(self, label, job=None):
        if job is not None:
            self._job = job
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, label))
        return sid, parent, self.clock()

    def close(self, token, label):
        sid, parent, start = token
        end = self.clock()
        self._stack.pop()
        self.spans.append((sid, parent, self._job, label, start, end))

    def _span_wrapper(self, fn, label):
        def traced(*args, **kwargs):
            token = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token, label)
            if label == "core.propagate":
                self.counts["core.propagate.sites"] += result.n_sites
            elif label == "bands.find_band_edges":
                self.counts["bands.edges_found"] += len(result.edges) + len(
                    result.degenerate_edges
                )
            return result

        return traced

    def _count_wrapper(self, fn, name):
        def counted(*args, **kwargs):
            if name == "oracle.pivots":  # _counts_batch(op, energies)
                self.counts[name] += args[0].n_sites * np.size(args[1])
            else:
                self.counts[name] += 1
            if name == "bands.disc_evals" and self._stack:
                self.evals_in[self._stack[-1][1]] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------
    def install(self):
        mods = [importlib.import_module("latticeband")] + [
            importlib.import_module(f"latticeband.{name}") for name in MODULES
        ]
        targets = [(k, self._span_wrapper, v) for k, v in SPANS.items()]
        targets += [(k, self._count_wrapper, v) for k, v in COUNTS.items()]
        for (mod_name, attr), make, label in targets:
            original = getattr(importlib.import_module(f"latticeband.{mod_name}"), attr, None)
            if original is None:
                if f"{mod_name}.{attr}" not in self.missing:
                    self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = make(original, label)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.evals_in.clear()

    # -- reduction -------------------------------------------------------
    def self_times(self, scales) -> dict:
        """Self seconds per label: duration minus direct children's durations.

        Each span is scaled like its job's latency (see run.calibrate).
        """
        child = defaultdict(float)
        for _sid, parent, _job, _label, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, job, label, start, end in self.spans:
            out[label] += ((end - start) - child[sid]) * scales[job]
        return out

    def span_calls(self) -> Counter:
        return Counter(label for *_rest, label, _s, _e in self.spans)

    def dump(self, path, pass_index):
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, job, label, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"pass": pass_index, "id": sid, "parent": parent, "job": job,
                         "name": label, "start": start, "end": end}
                    )
                    + "\n"
                )


def _rate(work, seconds):
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(tracer: Tracer, result) -> dict:
    """Per-layer metric values for one traced pass (a run.Pass)."""
    stats, wall = result.stats, result.wall
    st = tracer.self_times(result.job_scales)
    calls = tracer.span_calls()
    c = tracer.counts

    def module_self(prefix):
        return sum(v for k, v in st.items() if k.startswith(prefix + "."))

    edges = c["bands.edges_found"]
    checked, zones = stats["oracle.zones_checked"], stats["oracle.zones"]
    out = {
        "core.propagate.calls": calls["core.propagate"],
        "core.propagate.sites": c["core.propagate.sites"],
        "core.propagate.self_s": st["core.propagate"],
        "core.propagate.sites_per_s": _rate(c["core.propagate.sites"], st["core.propagate"]),
        "core.recurrence_residual.self_s": st["core.recurrence_residual"],
        "core.validate_potential.calls": c["core.validate_potential.calls"],
        "core.self_s": module_self("core"),
        "bands.disc_evals": c["bands.disc_evals"],
        "bands.disc_evals_per_s": _rate(c["bands.disc_evals"], module_self("bands")),
        "bands.find_band_edges.self_s": st["bands.find_band_edges"],
        "bands.edges_found": edges,
        "bands.evals_per_edge": _rate(tracer.evals_in["bands.find_band_edges"], edges),
        "bands.point_query.self_s": st["bands.point_query"],
        "bands.dirichlet_spectrum.self_s": st["bands.dirichlet_spectrum"],
        "bands.grid_warnings": stats["bands.grid_warnings"],
        "bands.edges_missed": stats["bands.edges_missed"],
        "bands.levels_missed": stats["bands.levels_missed"],
        "bands.self_s": module_self("bands"),
        "floquet.floquet_solution.self_s": st["floquet.floquet_solution"],
        "floquet.ic_sweep.self_s": st["floquet.ic_sweep"],
        "floquet.effective_potential.self_s": st["floquet.effective_potential"],
        "floquet.analysis.self_s": st["floquet.analysis"],
        "floquet.self_s": module_self("floquet"),
        "oracle.cross_validate.self_s": st["oracle.cross_validate"],
        "oracle.classify_interval.calls": calls["oracle.classify_interval"],
        "oracle.pivots": c["oracle.pivots"],
        "oracle.pivots_per_s": _rate(c["oracle.pivots"], module_self("oracle")),
        "oracle.zones_checked": checked,
        "oracle.zones_skipped": zones - checked,
        "oracle.zone_coverage": _rate(checked, zones),
        "oracle.false_mismatches": stats["oracle.false_mismatches"],
        "oracle.self_s": module_self("oracle"),
        "scenario.parse.self_s": st["scenario.parse"],
        "scenario.run.self_s": st["scenario.run"],
        "scenario.csv_bytes": stats["scenario.csv_bytes"],
        "scenario.csv_bytes_per_s": _rate(stats["scenario.csv_bytes"], st["scenario.run"]),
        "cli.main.self_s": st["cli.main"],
    }
    for code in range(4):
        out[f"cli.exit_code.{code}"] = stats[f"cli.exit_code.{code}"]
    modules = sum(module_self(name) for name in MODULES)
    out["bench.self_s"] = st[JOB]
    out["trace.wall_s"] = wall
    out["trace.accounted_frac"] = _rate(modules, wall)
    return out
