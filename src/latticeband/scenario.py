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
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import bands, floquet, oracle
from .core import (
    InitialCondition,
    LatticeSpec,
    PeriodicPotential,
    propagate,
    validate_potential,
)
from .errors import ConfigError, LatticeBandError, ValidationMismatchError

# Preset energy list for the fig1 kind: one trace per qualitative regime
# (growing exponential below the band, linear at the lower edge, sine-like
# inside, beating near the upper edge, staggered-linear at the upper edge,
# staggered-growing above).
FIG1_ENERGIES = (-0.5, -0.1, 0.0, 0.7, 2.0, 3.9, 4.0, 4.5)

CLAMP = 1e12
# Upper bound of every size field: m, n_sites, angles, count, grid_points.
MAX_SIZE = 10**6

_BRANCHES = ("plus", "minus", "growing", "decaying")
# Kinds that scan their energies as one {from, to, count} range.
_RANGE_KINDS = ("band-scan", "validate")


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
        # |D| is compared with 2 - tol_edge and 2 + tol_edge; from 2 on no
        # energy could be Allowed.
        if not 0.0 <= self.tol_edge < 2.0:
            raise ConfigError(f"tol_edge must be in [0, 2), got {self.tol_edge!r}")


@dataclass(frozen=True)
class Scenario:
    """One job. Construction, and so every `dataclasses.replace`, checks the
    fields against each other; `parse_scenario` checks each field's form."""

    kind: str
    delta: float = 1.0
    v: tuple = (0.0,)
    u: tuple = (0.0,)
    energies: object = None  # tuple of floats or EnergyRange; fig1: FIG1_ENERGIES
    n_sites: int = 400
    ic: tuple | None = None  # (psi0, psi1); (0, 1) unless the kind is trace
    angles: int = 180
    branch: str = "growing"
    claimed_edges: tuple | None = None
    out: str = "."
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        # kind may be any JSON value here, so it is compared, never hashed
        kind = self.kind
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
        if self.energies is None:
            if kind != "fig1":
                raise ConfigError(f"kind '{kind}' requires the 'energies' field")
            object.__setattr__(self, "energies", FIG1_ENERGIES)
        if self.ic is None:
            if kind == "trace":
                raise ConfigError("kind 'trace' requires the 'ic' field")
            object.__setattr__(self, "ic", (0.0, 1.0))
        energies = self.energies
        if kind in _RANGE_KINDS:
            if not isinstance(energies, EnergyRange):
                raise ConfigError(f"kind '{kind}' requires energies as a {{from, to, count}} range")
            if not energies.start < energies.stop:
                raise ConfigError(
                    f"kind '{kind}' needs energies.from < energies.to, "
                    f"got {energies.start!r} and {energies.stop!r}"
                )
        if self.claimed_edges is not None:
            if kind != "validate":
                raise ConfigError("field 'claimed_edges' only applies to the validate kind")
            if not all(energies.start < e < energies.stop for e in self.claimed_edges):
                raise ConfigError("claimed_edges must lie strictly inside the energies range")
        # Surface operator-level problems (degenerate hopping, zero ic) as config
        # errors with the offending field visible.
        try:
            validate_potential(self.potential(), self.lattice())
            InitialCondition(*self.ic)
        except (LatticeBandError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

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


# Field parsers: each takes a JSON value and the field's dotted name.


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


def _string(value, name):
    if not isinstance(value, str):
        raise ConfigError(f"field '{name}' must be a string")
    return value


def _branch(value, name):
    if value not in _BRANCHES:
        raise ConfigError(f"unknown branch {value!r}")
    return value


def _nullable(parse):
    """Let null through, as for m, v and u: the given ones size the others."""
    return lambda value, name: None if value is None else parse(value, name)


def _record(value, parsers, prefix, unknown, whole=None):
    """Parse one JSON object key by key, in the order of `parsers`.

    A key without a parser is an error, and so is a missing key when the
    object must be `whole`.
    """
    extra = set(value) - set(parsers)
    if extra:
        raise ConfigError(f"unknown {unknown}: {sorted(extra)}")
    missing = [key for key in parsers if key not in value]
    if whole and missing:
        raise ConfigError(f"{whole} is missing '{missing[0]}'")
    return {key: parse(value[key], prefix + key) for key, parse in parsers.items() if key in value}


_RANGE_KEYS = {"from": _number, "to": _number, "count": _integer}
_IC_KEYS = {"psi0": _number, "psi1": _number}
_TOLERANCE_KEYS = {f.name: _integer if f.type == "int" else _number for f in fields(Tolerances)}


def _parse_energies(value, name):
    if isinstance(value, list):
        return _number_list(value, name)
    if not isinstance(value, dict):
        raise ConfigError("field 'energies' must be an array or a {from, to, count} object")
    parts = _record(value, _RANGE_KEYS, "energies.", "keys in energies range", "energies range")
    return EnergyRange(*parts.values())


def _parse_ic(value, name):
    if isinstance(value, list) and len(value) == 2:
        return (_number(value[0], name), _number(value[1], name))
    if not isinstance(value, dict):
        raise ConfigError("field 'ic' must be {psi0, psi1} or a two-element array")
    return tuple(_record(value, _IC_KEYS, "ic.", "keys in ic", "ic").values())


def _parse_tolerances(value, name):
    if not isinstance(value, dict):
        raise ConfigError("field 'tolerances' must be an object")
    return Tolerances(**_record(value, _TOLERANCE_KEYS, "tolerances.", "tolerance keys"))


# The schema: one parser per document key, in canonical order. A key left
# out takes the Scenario default; "m" only sizes v and u. Scenario itself
# checks kind and everything that relates two fields.
_FIELDS = {
    "kind": lambda value, name: value,
    "delta": _number,
    "m": _nullable(_integer),
    "v": _nullable(_number_list),
    "u": _nullable(_number_list),
    "energies": _parse_energies,
    "n_sites": partial(_integer, lo=2),
    "ic": _parse_ic,
    "angles": partial(_integer, lo=floquet.MIN_ANGLES),
    "branch": _branch,
    "claimed_edges": _number_list,
    "out": _string,
    "tolerances": _parse_tolerances,
}
# JSON form of the values not written as they are stored.
_DUMPS = {
    "energies": lambda e: dict(zip(_RANGE_KEYS, astuple(e))) if isinstance(e, EnergyRange) else e,
    "ic": lambda ic: dict(zip(_IC_KEYS, ic)),
    "tolerances": asdict,
}


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"scenario is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    doc = _record(raw, _FIELDS, "", "scenario fields")
    if "kind" not in doc:
        raise ConfigError("missing required field 'kind'")
    # v, u and m size one another; what none of them gives is zeros, m = 1
    m = doc.pop("m", None) or len(doc.get("v") or doc.get("u") or (0.0,))
    v = doc["v"] = doc.get("v") or (0.0,) * m
    u = doc["u"] = doc.get("u") or (0.0,) * m
    if len(v) != m or len(u) != m:
        raise ConfigError(
            f"inconsistent potential: m = {m}, len(v) = {len(v)}, len(u) = {len(u)}"
        )
    return Scenario(**doc)


def parse_scenario_file(path) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text(encoding="utf-8"))


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(s)) == s."""
    doc = {}
    for name in _FIELDS:
        value = getattr(s, name)
        if value is not None:
            doc[name] = _DUMPS.get(name, lambda x: x)(value)
    return json.dumps(doc, indent=2) + "\n"


def scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()


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
        zip(range(trace.n_sites + 1), trace.s.tolist(), trace.ell.tolist(), recon.tolist())
    )


_TRACE_COLUMNS = ("n", "psi_scaled", "log_amp", "psi_reconstructed_clamped")


# Row functions of the per-energy kinds: (scenario, energy) -> rows.


def _trace(s, energy):
    ic = InitialCondition(*s.ic)
    return _trace_rows(propagate(s.potential(), s.lattice(), energy, ic, s.n_sites))


def _floquet(s, energy):
    table = validate_potential(s.potential(), s.lattice())
    trace, lam, kappa = floquet._fundamental(table, energy, s.branch, s.n_sites)
    knot_res = floquet.knot_periodicity_residual(floquet.knots(trace), s.m)
    ratio_res = floquet.ratio_periodicity_residual(trace, s.m)
    extras = (lam, kappa, float(knot_res), float(ratio_res))
    return tuple(row + extras for row in _trace_rows(trace))


def _effective(s, energy):
    pot, lat = s.potential(), s.lattice()
    trace = floquet.floquet_solution(pot, lat, energy, s.branch, s.n_sites)
    profile = floquet._fold(trace, pot)
    residual = floquet.effective_potential_periodicity_residual(profile, pot.m)
    n = len(profile.w)
    return tuple(
        zip(range(n), profile.w.tolist(), profile.defined.tolist(), [float(residual)] * n)
    )


def _sweep(s, energy):
    result = floquet.ic_sweep(s.potential(), s.lattice(), energy, s.angles, s.n_sites)
    return tuple(zip(result.alphas, result.growths))


def _beat(s, energy):
    pot, lat = s.potential(), s.lattice()
    trace = propagate(pot, lat, energy, InitialCondition(*s.ic), s.n_sites)
    est = floquet.beat_estimate(trace, pot, lat)
    return tuple((pos, est.l_est, est.l_pred) for pos in est.minima_positions)


def _per_energy(columns, rows_at):
    """Runner writing one <kind>_<label> series of rows_at(s, energy) per energy."""

    def run(s):
        used = set()
        series = [
            ReportSeries(f"{s.kind}_{_energy_label(energy, used)}", columns, rows_at(s, energy))
            for energy in s.energy_list()
        ]
        return series, None

    return run


def _band_diagram(s):
    tol = s.tolerances
    return bands.find_band_edges(
        s.potential(),
        s.lattice(),
        s.energies.start,
        s.energies.stop,
        grid_points=tol.grid_points,
        tol=tol.root_tol,
        tol_edge=tol.tol_edge,
    )


def _band_scan(s):
    energies = s.energy_list()
    table = validate_potential(s.potential(), s.lattice())
    discs = bands._period_map(table, np.array(energies)).disc.tolist()
    rows = [
        (float(e), d, bands._zone_kind(d, s.tolerances.tol_edge).value)
        for e, d in zip(energies, discs)
    ]
    diagram = _band_diagram(s)
    all_edges = sorted(
        list(diagram.edges) + list(diagram.degenerate_edges), key=lambda e: e.energy
    )
    series = [
        ReportSeries(name="band-scan_scan", columns=("E", "D", "class"), rows=tuple(rows)),
        ReportSeries(
            name="band-scan_edges",
            columns=("edge_energy", "which_root"),
            rows=tuple((e.energy, e.level) for e in all_edges),
        ),
    ]
    return series, None


def _validate(s):
    pot, lat, tol = s.potential(), s.lattice(), s.tolerances
    if s.claimed_edges is None:
        diagram = _band_diagram(s)
    else:
        diagram = bands.diagram_from_edges(
            pot, lat, s.energies.start, s.energies.stop, s.claimed_edges, tol_edge=tol.tol_edge
        )
    try:
        report = oracle.cross_validate(
            diagram, pot, lat, tol.margin, grid_points=tol.grid_points, tol=tol.root_tol
        )
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


# kind -> runner returning (series, validation verdict or None).
_RUNNERS = {
    "trace": _per_energy(_TRACE_COLUMNS, _trace),
    "band-scan": _band_scan,
    "fig1": _per_energy(_TRACE_COLUMNS, _trace),
    "floquet": _per_energy(
        _TRACE_COLUMNS + ("lambda", "kappa_site", "knot_residual", "ratio_residual"), _floquet
    ),
    "effective": _per_energy(("n", "W", "defined_flag", "periodicity_residual"), _effective),
    "sweep": _per_energy(("alpha", "tail_growth"), _sweep),
    "beat": _per_energy(("envelope_min_position", "L_est", "L_pred"), _beat),
    "validate": _validate,
}
KINDS = tuple(_RUNNERS)


def run_scenario(s: Scenario, out_dir=None) -> RunResult:
    """Execute a scenario and write its CSV series plus a run manifest."""
    series, validation_ok = _RUNNERS[s.kind](s)

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


def _conversion(kind: type) -> str:
    """printf conversion for one value type: %.17g floats, %d ints and bools."""
    if issubclass(kind, float):
        return "%.17g"
    if issubclass(kind, int):
        return "%d"
    return "%s"


def _write_csv(path: Path, columns, rows) -> None:
    """Write a header and one line per row tuple, all through one template.

    Each column's conversion follows the type of its values. A column that
    mixes types is turned into text value by value first, so every value
    prints as its own type would.
    """
    conversions = []
    for j in range(len(columns)):
        kinds = set(map(type, map(itemgetter(j), rows)))
        if len(kinds) > 1:
            rows = [r[:j] + (_conversion(type(r[j])) % r[j],) + r[j + 1 :] for r in rows]
            kinds = {str}
        conversions.append(_conversion(next(iter(kinds), str)))
    template = ",".join(conversions)
    lines = [",".join(columns)]
    lines.extend(template % row for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
