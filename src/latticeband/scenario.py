"""Scenario files: parse, serialise, run, and emit CSV series.

A scenario is one JSON document describing a job:

    {
      "kind": "band-scan",
      "delta": 1.0,
      "m": 2, "v": [1.0, -1.0], "u": [0.0, 0.0],
      "energies": {"from": -2.0, "to": 6.0, "count": 801},
      "n_sites": 400,
      "ic": {"psi0": 0.0, "psi1": 1.0},
      "out": "results",
      "tolerances": {"grid_points": 2001, "root_tol": 1e-10}
    }

Every kind writes one or more CSV series named <kind>_<label>.csv plus a
manifest listing each emitted file with the scenario hash. Numeric output is
formatted with 17 significant digits and fixed column order, so identical
scenarios produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import bands, floquet, oracle
from .core import (
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    propagate,
    validate_potential,
)
from .errors import ConfigError, LatticeBandError, ValidationMismatchError

KINDS = (
    "trace",
    "band-scan",
    "fig1",
    "floquet",
    "effective",
    "sweep",
    "beat",
    "validate",
)

# Preset energy list for the fig1 kind: one trace per qualitative regime
# (growing exponential below the band, linear at the lower edge, sine-like
# inside, beating near the upper edge, staggered-linear at the upper edge,
# staggered-growing above).
FIG1_ENERGIES = (-0.5, -0.1, 0.0, 0.7, 2.0, 3.9, 4.0, 4.5)

CLAMP = 1e12
# Upper bound of every size field: m, n_sites, angles, count, grid_points.
MAX_SIZE = 10**6


@dataclass(frozen=True)
class EnergyRange:
    start: float
    stop: float
    count: int

    def resolve(self) -> list:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


@dataclass(frozen=True)
class Tolerances:
    tol_edge: float = bands.TOL_EDGE
    root_tol: float = bands.DEFAULT_ROOT_TOL
    grid_points: int = bands.DEFAULT_GRID_POINTS
    margin: float = oracle.DEFAULT_MARGIN

    def __post_init__(self):
        if not 16 <= self.grid_points <= MAX_SIZE:
            raise ConfigError(
                f"grid_points must be between 16 and {MAX_SIZE}, got {self.grid_points}"
            )
        if not 0.0 < self.root_tol < math.inf:
            raise ConfigError(f"root_tol must be positive and finite, got {self.root_tol!r}")
        if not 0.0 < self.margin < math.inf:
            raise ConfigError(f"margin must be positive and finite, got {self.margin!r}")


@dataclass(frozen=True)
class Scenario:
    kind: str
    delta: float = 1.0
    v: tuple = (0.0,)
    u: tuple = (0.0,)
    energies: object = None  # tuple of floats or EnergyRange
    n_sites: int = 400
    ic: tuple = (0.0, 1.0)
    angles: int = 180
    branch: str = "growing"
    claimed_edges: tuple | None = None
    out: str = "."
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def m(self) -> int:
        return len(self.v)

    def potential(self) -> PeriodicPotential:
        return PeriodicPotential(v=self.v, u=self.u)

    def lattice(self) -> LatticeSpec:
        return LatticeSpec(delta=self.delta)

    def energy_list(self) -> list:
        if isinstance(self.energies, EnergyRange):
            return self.energies.resolve()
        return list(self.energies)


@dataclass(frozen=True)
class ReportSeries:
    name: str
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class RunResult:
    series: tuple
    files: tuple
    out_dir: str
    validation_ok: bool | None


_KNOWN_KEYS = {
    "kind",
    "delta",
    "m",
    "v",
    "u",
    "energies",
    "n_sites",
    "ic",
    "angles",
    "branch",
    "claimed_edges",
    "out",
    "tolerances",
}
_RANGE_KINDS = ("band-scan", "validate")
_ENERGY_KINDS = ("trace", "band-scan", "floquet", "effective", "sweep", "beat", "validate")


def _number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{name}' must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"field '{name}' is too large for a float") from None
    if not math.isfinite(value):
        raise ConfigError(f"field '{name}' must be finite, got {value!r}")
    return value


def _integer(value, name, lo=1):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}")
    if not lo <= value <= MAX_SIZE:
        raise ConfigError(f"field '{name}' must be between {lo} and {MAX_SIZE}, got {value}")
    return value


def _number_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field '{name}' must be a non-empty array of numbers")
    return tuple(_number(x, name) for x in value)


def _parse_energies(value):
    if isinstance(value, list):
        return _number_list(value, "energies")
    if isinstance(value, dict):
        extra = set(value) - {"from", "to", "count"}
        if extra:
            raise ConfigError(f"unknown keys in energies range: {sorted(extra)}")
        for key in ("from", "to", "count"):
            if key not in value:
                raise ConfigError(f"energies range is missing '{key}'")
        return EnergyRange(
            start=_number(value["from"], "energies.from"),
            stop=_number(value["to"], "energies.to"),
            count=_integer(value["count"], "energies.count"),
        )
    raise ConfigError("field 'energies' must be an array or a {from, to, count} object")


def _check_scan_range(energies, kind):
    if not isinstance(energies, EnergyRange):
        raise ConfigError(f"kind '{kind}' requires energies as a {{from, to, count}} range")
    if not energies.start < energies.stop:
        raise ConfigError(
            f"kind '{kind}' needs energies.from < energies.to, "
            f"got {energies.start!r} and {energies.stop!r}"
        )


def _parse_ic(value):
    if isinstance(value, dict):
        extra = set(value) - {"psi0", "psi1"}
        if extra:
            raise ConfigError(f"unknown keys in ic: {sorted(extra)}")
        try:
            return (_number(value["psi0"], "ic.psi0"), _number(value["psi1"], "ic.psi1"))
        except KeyError as exc:
            raise ConfigError(f"ic is missing {exc}") from None
    if isinstance(value, list) and len(value) == 2:
        return (_number(value[0], "ic"), _number(value[1], "ic"))
    raise ConfigError("field 'ic' must be {psi0, psi1} or a two-element array")


def _parse_tolerances(value):
    if not isinstance(value, dict):
        raise ConfigError("field 'tolerances' must be an object")
    defaults = Tolerances()
    extra = set(value) - {"tol_edge", "root_tol", "grid_points", "margin"}
    if extra:
        raise ConfigError(f"unknown tolerance keys: {sorted(extra)}")
    return Tolerances(
        tol_edge=_number(value.get("tol_edge", defaults.tol_edge), "tolerances.tol_edge"),
        root_tol=_number(value.get("root_tol", defaults.root_tol), "tolerances.root_tol"),
        grid_points=_integer(
            value.get("grid_points", defaults.grid_points), "tolerances.grid_points"
        ),
        margin=_number(value.get("margin", defaults.margin), "tolerances.margin"),
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"scenario is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    if "kind" not in raw:
        raise ConfigError("missing required field 'kind'")
    kind = raw["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")

    delta = _number(raw.get("delta", 1.0), "delta")

    m_given = raw.get("m")
    v_given = raw.get("v")
    u_given = raw.get("u")
    if m_given is not None:
        m_given = _integer(m_given, "m")
    v = _number_list(v_given, "v") if v_given is not None else None
    u = _number_list(u_given, "u") if u_given is not None else None
    m = m_given or (len(v) if v is not None else None) or (len(u) if u is not None else None) or 1
    if v is None:
        v = (0.0,) * m
    if u is None:
        u = (0.0,) * m
    if len(v) != m or len(u) != m:
        raise ConfigError(
            f"inconsistent potential: m = {m}, len(v) = {len(v)}, len(u) = {len(u)}"
        )

    if kind in _ENERGY_KINDS and "energies" not in raw:
        raise ConfigError(f"kind '{kind}' requires the 'energies' field")
    if kind == "trace" and "ic" not in raw:
        raise ConfigError("kind 'trace' requires the 'ic' field")
    energies = _parse_energies(raw["energies"]) if "energies" in raw else None
    if kind == "fig1" and energies is None:
        energies = FIG1_ENERGIES
    if kind in _RANGE_KINDS:
        _check_scan_range(energies, kind)

    n_sites = _integer(raw.get("n_sites", 400), "n_sites", lo=2)
    ic = _parse_ic(raw["ic"]) if "ic" in raw else (0.0, 1.0)
    angles = _integer(raw.get("angles", 180), "angles", lo=floquet.MIN_ANGLES)
    branch = raw.get("branch", "growing")
    if branch not in ("plus", "minus", "growing", "decaying"):
        raise ConfigError(f"unknown branch {branch!r}")
    claimed = (
        _number_list(raw["claimed_edges"], "claimed_edges")
        if "claimed_edges" in raw
        else None
    )
    if claimed is not None and kind != "validate":
        raise ConfigError("field 'claimed_edges' only applies to the validate kind")
    if claimed is not None and not all(energies.start < e < energies.stop for e in claimed):
        raise ConfigError("claimed_edges must lie strictly inside the energies range")
    out = raw.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("field 'out' must be a string")
    tolerances = _parse_tolerances(raw.get("tolerances", {}))

    scenario = Scenario(
        kind=kind,
        delta=delta,
        v=v,
        u=u,
        energies=energies,
        n_sites=n_sites,
        ic=ic,
        angles=angles,
        branch=branch,
        claimed_edges=claimed,
        out=out,
        tolerances=tolerances,
    )
    # Surface operator-level problems (degenerate hopping, zero ic) as config
    # errors with the offending field visible.
    try:
        validate_potential(scenario.potential(), scenario.lattice())
        InitialCondition(*scenario.ic)
    except (LatticeBandError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return scenario


def parse_scenario_file(path) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text(encoding="utf-8"))


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(s)) == s."""
    doc = {
        "kind": s.kind,
        "delta": s.delta,
        "m": s.m,
        "v": list(s.v),
        "u": list(s.u),
    }
    if isinstance(s.energies, EnergyRange):
        doc["energies"] = {
            "from": s.energies.start,
            "to": s.energies.stop,
            "count": s.energies.count,
        }
    elif s.energies is not None:
        doc["energies"] = list(s.energies)
    doc["n_sites"] = s.n_sites
    doc["ic"] = {"psi0": s.ic[0], "psi1": s.ic[1]}
    doc["angles"] = s.angles
    doc["branch"] = s.branch
    if s.claimed_edges is not None:
        doc["claimed_edges"] = list(s.claimed_edges)
    doc["out"] = s.out
    doc["tolerances"] = {
        "tol_edge": s.tolerances.tol_edge,
        "root_tol": s.tolerances.root_tol,
        "grid_points": s.tolerances.grid_points,
        "margin": s.tolerances.margin,
    }
    return json.dumps(doc, indent=2) + "\n"


def scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _energy_label(energy: float, used: set) -> str:
    label = f"E{energy:g}"
    candidate = label
    suffix = 2
    while candidate in used:
        candidate = f"{label}_{suffix}"
        suffix += 1
    used.add(candidate)
    return candidate


def _trace_rows(trace) -> tuple:
    recon = trace.reconstructed(clamp=CLAMP)
    return tuple(
        (n, float(trace.s[n]), float(trace.ell[n]), float(recon[n]))
        for n in range(trace.n_sites + 1)
    )


_TRACE_COLUMNS = ("n", "psi_scaled", "log_amp", "psi_reconstructed_clamped")


def _run_trace(s, kind_label):
    pot, lat = s.potential(), s.lattice()
    ic = InitialCondition(*s.ic)
    used = set()
    series = []
    for energy in s.energy_list():
        trace = propagate(pot, lat, energy, ic, s.n_sites)
        series.append(
            ReportSeries(
                name=f"{kind_label}_{_energy_label(energy, used)}",
                columns=_TRACE_COLUMNS,
                rows=_trace_rows(trace),
            )
        )
    return series


def _run_band_scan(s, scan):
    pot, lat = s.potential(), s.lattice()
    rows = []
    for energy in s.energy_list():
        zc = bands.classify_energy(pot, lat, energy, tol_edge=scan.tol_edge)
        rows.append((float(energy), zc.disc, zc.kind.value))
    diagram = bands.find_band_edges(
        pot,
        lat,
        s.energies.start,
        s.energies.stop,
        grid_points=scan.grid_points,
        tol=scan.root_tol,
        tol_edge=scan.tol_edge,
    )
    all_edges = sorted(
        list(diagram.edges) + list(diagram.degenerate_edges), key=lambda e: e.energy
    )
    return [
        ReportSeries(name="band-scan_scan", columns=("E", "D", "class"), rows=tuple(rows)),
        ReportSeries(
            name="band-scan_edges",
            columns=("edge_energy", "which_root"),
            rows=tuple((e.energy, e.level) for e in all_edges),
        ),
    ]


def _run_floquet(s):
    pot, lat = s.potential(), s.lattice()
    used = set()
    series = []
    for energy in s.energy_list():
        trace = floquet.floquet_solution(pot, lat, energy, s.branch, s.n_sites)
        pair = bands.floquet_multipliers(pot, lat, energy)
        lam, _ = floquet.select_branch(pair, s.branch)
        knot_res = floquet.knot_periodicity_residual(floquet.knots(trace), pot.m)
        ratio_res = floquet.ratio_periodicity_residual(trace, pot.m)
        extras = (float(lam), pair.kappa_site, float(knot_res), float(ratio_res))
        series.append(
            ReportSeries(
                name=f"floquet_{_energy_label(energy, used)}",
                columns=_TRACE_COLUMNS
                + ("lambda", "kappa_site", "knot_residual", "ratio_residual"),
                rows=tuple(row + extras for row in _trace_rows(trace)),
            )
        )
    return series


def _run_effective(s):
    pot, lat = s.potential(), s.lattice()
    used = set()
    series = []
    for energy in s.energy_list():
        trace = floquet.floquet_solution(pot, lat, energy, s.branch, s.n_sites)
        profile = floquet.effective_potential(trace, pot, lat)
        residual = floquet.effective_potential_periodicity_residual(profile, pot.m)
        rows = tuple(
            (n, float(profile.w[n]), bool(profile.defined[n]), float(residual))
            for n in range(len(profile.w))
        )
        series.append(
            ReportSeries(
                name=f"effective_{_energy_label(energy, used)}",
                columns=("n", "W", "defined_flag", "periodicity_residual"),
                rows=rows,
            )
        )
    return series


def _run_sweep(s):
    pot, lat = s.potential(), s.lattice()
    used = set()
    series = []
    for energy in s.energy_list():
        result = floquet.ic_sweep(pot, lat, energy, s.angles, s.n_sites)
        series.append(
            ReportSeries(
                name=f"sweep_{_energy_label(energy, used)}",
                columns=("alpha", "tail_growth"),
                rows=tuple(zip(result.alphas, result.growths)),
            )
        )
    return series


def _run_beat(s):
    pot, lat = s.potential(), s.lattice()
    ic = InitialCondition(*s.ic)
    used = set()
    series = []
    for energy in s.energy_list():
        trace = propagate(pot, lat, energy, ic, s.n_sites)
        est = floquet.beat_estimate(trace, pot, lat)
        rows = tuple((pos, est.l_est, est.l_pred) for pos in est.minima_positions)
        series.append(
            ReportSeries(
                name=f"beat_{_energy_label(energy, used)}",
                columns=("envelope_min_position", "L_est", "L_pred"),
                rows=rows,
            )
        )
    return series


def _run_validate(s, scan):
    pot, lat = s.potential(), s.lattice()
    if s.claimed_edges is not None:
        diagram = bands.diagram_from_edges(
            pot,
            lat,
            s.energies.start,
            s.energies.stop,
            s.claimed_edges,
            tol_edge=scan.tol_edge,
        )
    else:
        diagram = bands.find_band_edges(
            pot,
            lat,
            s.energies.start,
            s.energies.stop,
            grid_points=scan.grid_points,
            tol=scan.root_tol,
            tol_edge=scan.tol_edge,
        )
    try:
        report = oracle.cross_validate(diagram, pot, lat, margin=scan.margin)
        ok = True
    except ValidationMismatchError as exc:
        report = exc.report
        ok = False
    rows = tuple(
        (c.lo, c.hi, c.expected, c.verdict, c.passed) for c in report.checks
    )
    series = [
        ReportSeries(
            name="validate_report",
            columns=("interval_lo", "interval_hi", "expected", "oracle_verdict", "pass"),
            rows=rows,
        )
    ]
    return series, ok


def run_scenario(
    s: Scenario,
    out_dir=None,
    grid_points: int | None = None,
    root_tol: float | None = None,
) -> RunResult:
    """Execute a scenario and write its CSV series plus a run manifest."""
    scan = replace(
        s.tolerances,
        grid_points=s.tolerances.grid_points if grid_points is None else grid_points,
        root_tol=s.tolerances.root_tol if root_tol is None else root_tol,
    )
    validation_ok = None
    if s.kind in ("trace", "fig1"):
        series = _run_trace(s, s.kind)
    elif s.kind == "band-scan":
        series = _run_band_scan(s, scan)
    elif s.kind == "floquet":
        series = _run_floquet(s)
    elif s.kind == "effective":
        series = _run_effective(s)
    elif s.kind == "sweep":
        series = _run_sweep(s)
    elif s.kind == "beat":
        series = _run_beat(s)
    elif s.kind == "validate":
        series, validation_ok = _run_validate(s, scan)
    else:  # unreachable after parsing
        raise ConfigError(f"unknown kind {s.kind!r}")

    out = Path(out_dir) if out_dir is not None else Path(s.out)
    out.mkdir(parents=True, exist_ok=True)
    digest = scenario_hash(s)
    files = []
    for item in series:
        name = f"{item.name}.csv"
        _write_csv(out / name, item.columns, item.rows)
        files.append(name)
    files.sort()
    manifest_rows = tuple((name, digest) for name in files)
    _write_csv(out / "manifest.csv", ("file", "scenario_hash"), manifest_rows)
    files.append("manifest.csv")
    return RunResult(
        series=tuple(series),
        files=tuple(files),
        out_dir=str(out),
        validation_ok=validation_ok,
    )


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def as_validate(s: Scenario) -> Scenario:
    """Reinterpret any scenario with a range of energies as a validate job."""
    _check_scan_range(s.energies, "validate")
    return replace(s, kind="validate")
