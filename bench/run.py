"""latticeband benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload spectra|oracle|solutions --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src` directory. One process, one thread. Each run:

1. generates the workload's scenario documents from the seed and writes them
   under .bench_work/ in the checkout;
2. measures set-up (fresh interpreter -> inputs parsed) three times, then
   once between jobs every SETUP_EVERY_S for the rest of the run;
3. runs the probe job once to warm up, then max(MIN_PASSES, S // first
   pass) measured passes (with --trace 1 at least one pass, in which each job
   runs untraced and then traced);
4. checks every output against independent references (untimed) and prints
   a record line, then the result line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With --trace 0 the metrics are the end-to-end ones (wall_s, job_p50_s,
job_tail_s, setup_s, peak_rss_mb); with --trace 1 the per-layer ones, from
spans around latticeband's public functions (see tracing.py). Times are
scaled to a reference machine speed (see calibrate); set-up times are not.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# Fix glibc's mmap threshold at its default, 128 KiB. Left to adapt, it rises
# after the first large free at a moment that varies from run to run, and
# peak RSS on solutions then read 93 or 105 MB from seed to seed; fixed, it
# reads 85 MB. M_MMAP_THRESHOLD is -3 in malloc.h.
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)
except (OSError, AttributeError):  # not glibc
    pass

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_FIRST = 3  # set-up samples before the warm-up pass
SETUP_EVERY_S = 2.0  # then one between jobs this often
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
CALIBRATION_S = 0.03  # calibrate() on an uncontended core of the reference machine
PROBE_EVERY_S = 1.0  # calibrate() this often inside a job


def _step(a, b, x, y):
    return a * x + b * y, x


def calibrate() -> float:
    """Seconds for a fixed mix of the program's kinds of work.

    The host's speed drifts by tens of percent within seconds, because other
    tenants share its cores, and the program slows with it. The loop runs
    between jobs and, through Sampler, every PROBE_EVERY_S inside a job. Each
    stretch of a job between two calibrations is scaled by CALIBRATION_S over
    their mean, so the job reads as seconds at the reference speed. Raw
    seconds stay in the record. The mix mirrors the hot
    loops: scalar recurrences through Python calls, pivot updates on small
    numpy arrays, float formatting.
    """
    start = time.perf_counter()
    x, y = 1.0, 0.5
    for _ in range(40_000):
        x, y = _step(0.999, -0.5, x, y)
        if abs(x) > 1e6:
            x, y = x * 1e-6, y * 1e-6
    energies, pivots = np.linspace(0.0, 1.0, 9), np.ones(9)
    counts = np.zeros(9, dtype=int)
    for _ in range(2500):
        pivots = 2.5 - energies - 1.0 / pivots
        pivots = np.where(pivots == 0.0, -1e-300, pivots)
        counts += pivots < 0.0
    ",".join(format(i * 0.1, ".17g") for i in range(3000))
    return time.perf_counter() - start


def environment(args, numpy_version):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "latticeband").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Setup:
    """Raw seconds from launching a fresh interpreter to parsed inputs.

    Not scaled: set-up is mostly process start, imports and file reads, which
    the in-process calibration loop does not track. Samples are spread over
    the whole run, one between jobs every SETUP_EVERY_S, because the host's
    fast and slow spells last seconds: nine samples taken in a row before the
    passes gave run medians whose ten-seed quartile spread reached 0.35.
    """

    def __init__(self, inputs: Path):
        self.child = [sys.executable, str(BENCH / "setup_child.py"), str(inputs)]
        self.samples = []
        self.last = 0.0

    def sample(self):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(self.child, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        self.samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
        self.last = time.monotonic()

    def sample_if_due(self) -> bool:
        if time.monotonic() - self.last < SETUP_EVERY_S:
            return False
        self.sample()
        return True


class Sampler:
    """Host speed inside a job: calibrate() every PROBE_EVERY_S from SIGALRM.

    The host's fast and slow spells last a few seconds, so a job as long as
    the oracle's m = 20 scan (about 10 s) can span several that the
    calibrations before and after it do not see. clock() is perf_counter
    minus the time spent in probes, so job times and spans leave them out;
    marks holds (clock() at each probe, its calibrate() seconds).
    """

    def __init__(self):
        self.marks = []
        self._paused = 0.0
        self._previous = None

    def clock(self):
        return time.perf_counter() - self._paused

    def _probe(self, _signum, _frame):
        at = self.clock()
        start = time.perf_counter()
        seconds = calibrate()
        self._paused += time.perf_counter() - start
        self.marks.append((at, seconds))

    def __enter__(self):
        self.marks = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass
class Pass:
    names: list  # job names, in job order
    raw: list  # seconds per job
    scales: list  # per job, scaled over raw seconds
    statuses: list
    stats: Counter

    @property
    def latencies(self):
        return [t * s for t, s in zip(self.raw, self.scales)]

    @property
    def wall(self):
        return sum(self.latencies)

    @property
    def job_scales(self):
        return dict(zip(self.names, self.scales))


class Runner:
    def __init__(self, jobs, lb, tracing, setup):
        self.jobs, self.lb, self.tracing, self.setup = jobs, lb, tracing, setup
        self.first = {}  # job name -> (digest, status, detail) of its first output
        self.correct = True
        self.sampler = Sampler()

    def run_pass(self, tracer=None):
        """One pass over the job list, with a calibration before and after each run.

        Returns [untraced pass], or with a tracer [untraced pass, traced pass]:
        then each job runs twice back to back, untraced and traced, so both
        runs see the same host speed and their difference is the tracing
        overhead. Every other job runs traced first, so that running second
        (warm caches, files already written) favours neither side.
        """
        modes = (None, tracer) if tracer else (None,)
        results = [Pass([job.name for job in self.jobs], [], [], [], Counter()) for _ in modes]
        before = calibrate()
        for k, job in enumerate(self.jobs):
            for mode, result in list(zip(modes, results))[:: -1 if k % 2 else 1]:
                job.prepare()
                if mode:
                    mode.install()
                try:
                    raw, error, pieces, probes, warned = self._run_job(job, mode)
                finally:
                    if mode:
                        mode.uninstall()
                after = calibrate()
                bounds = [before, *probes, after]
                scaled = sum(
                    t * 2.0 * CALIBRATION_S / (a + b) for t, a, b in zip(pieces, bounds, bounds[1:])
                )
                result.raw.append(sum(pieces))
                result.scales.append(scaled / sum(pieces))
                result.stats["bands.grid_warnings"] += warned
                result.statuses.append(self._status(job, raw, error, result.stats))
                before = calibrate() if self.setup.sample_if_due() else after
        return results

    def _run_job(self, job, tracer):
        """(raw result or None, error or None, seconds between probes, probe
        seconds, GridResolutionWarnings)."""
        raw = error = None
        with warnings.catch_warnings(record=True) as caught, self.sampler as sampler:
            warnings.simplefilter("always")
            token = tracer.open(self.tracing.JOB, job.name) if tracer else None
            start = sampler.clock()
            try:
                raw = job.run()
            except Exception as exc:  # a job failure is a measurement, not a crash
                error = exc
            end = sampler.clock()
            if tracer:
                tracer.close(token, self.tracing.JOB)
        marks = [(at, seconds) for at, seconds in sampler.marks if start <= at <= end]
        cuts = [start, *(at for at, _ in marks), end]
        pieces = [b - a for a, b in zip(cuts, cuts[1:])]
        warned = sum(issubclass(w.category, self.lb.GridResolutionWarning) for w in caught)
        return raw, error, pieces, [seconds for _, seconds in marks], warned

    def _status(self, job, raw, error, stats):
        if error is not None:
            status = ("fail", f"{type(error).__name__}: {error}")
            self.first.setdefault(job.name, (None, status, {}))
            return status
        try:
            value, digest, job_stats, detail = job.finish(raw)
            stats.update(job_stats)
            verdict = job.check(value) if job.name not in self.first else None
        except Exception as exc:  # e.g. an expected output file is missing
            digest, detail = None, {}
            verdict = ("wrong", f"output unreadable: {type(exc).__name__}: {exc}")
        if job.name not in self.first:
            self.first[job.name] = (digest, verdict, detail)
        first_digest, status, _ = self.first[job.name]
        if digest != first_digest:
            status = ("wrong", "output differs from the job's first run")
        if status[0] == "wrong":
            self.correct = False
        return status


def tail(samples):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run(args) -> int:
    import latticeband as lb
    import tracing
    import workloads

    if not Path(lb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: latticeband imported from {lb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    docs, jobs = workloads.WORKLOADS[args.workload](rng)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        for name, doc in docs.items():
            (inputs / f"{name}.scenario").write_text(json.dumps(doc, indent=2) + "\n")
        setup = Setup(inputs)
        for _ in range(SETUP_FIRST):
            setup.sample()
        parsed = {name: lb.parse_scenario_file(inputs / f"{name}.scenario") for name in docs}
        for job in jobs:
            job.bind(
                [parsed[d] for d in job.docs],
                [inputs / f"{d}.scenario" for d in job.docs],
                work / "out" / job.name,
            )

        runner = Runner(jobs, lb, tracing, setup)
        # Warm-up: one untimed run of the probe job, which touches every layer.
        # A whole warm-up pass would double an oracle run, past the time the
        # benchmark may take; the reference checks run in the first pass.
        probe = next(job for job in jobs if isinstance(job, workloads.ProbeJob))
        probe.prepare()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                probe.run()
            except Exception:  # the measured passes record it
                pass
        min_passes = 1 if args.trace else workloads.MIN_PASSES[args.workload]
        n_passes = min_passes
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.clock = runner.sampler.clock
        plain, traced, spans = [], [], []
        attempted = failed = 0
        failures = Counter()
        while len(plain) < n_passes:
            if tracer:
                tracer.reset()
            results = runner.run_pass(tracer)
            plain.append(results[0])
            if tracer:
                traced.append((results[1], tracing.layer_metrics(tracer, results[1])))
                spans.append(list(tracer.spans))
            if len(plain) == 1:
                # The pass count is fixed from the first measured pass, so the
                # tail's rank stays in the same job group from seed to seed.
                n_passes = max(min_passes, int(args.seconds // sum(r.wall for r in results)))
            for result in results:
                for job, status in zip(jobs, result.statuses):
                    attempted += 1
                    if status[0] != "ok":
                        failed += 1
                        failures[f"{job.name}: {status[0]}: {status[1]}"] += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = [x for p in plain for x in p.latencies]
    tail_value, tail_pct = tail(latencies)
    record = {
        "environment": environment(args, np.__version__),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "fail_frac": failed / attempted,
        "failures": dict(failures),
        "job_tail": {"percentile": tail_pct, "samples": len(latencies)},
        "setup_s_samples": setup.samples,
        "raw_wall_s": [sum(p.raw) for p in plain],
        "jobs": {
            name: {
                "digest": d, "status": s[0], "reason": s[1],
                "latency_s": statistics.median([p.latencies[i] for p in plain]),
                "raw_latency_s": statistics.median([p.raw[i] for p in plain]), **detail,
            }
            for i, (name, (d, s, detail)) in enumerate(runner.first.items())
        },
    }
    if args.trace:
        metrics = {k: statistics.median([t[k] for _, t in traced]) for k in traced[0][1]}
        plain_wall = statistics.median([p.wall for p in plain])
        metrics["trace.untraced_wall_s"] = plain_wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_wall
        out = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
        out.unlink(missing_ok=True)
        for i, pass_spans in enumerate(spans):
            tracer.spans = pass_spans
            tracer.dump(out, i)
        record["span_file"] = str(out.relative_to(ROOT))
        record["missing_hooks"] = tracer.missing
    else:
        metrics = {
            "wall_s": statistics.median([p.wall for p in plain]),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_value,
            "setup_s": statistics.median(setup.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": float(v), "unit": unit(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0


def unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_coverage", "_per_edge")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("spectra", "oracle", "solutions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticeband" / "__init__.py").is_file():
        print(f"bench: no latticeband sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
