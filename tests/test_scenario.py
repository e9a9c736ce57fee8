import hashlib
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import latticeband
from latticeband import (
    FIG1_ENERGIES,
    ConfigError,
    EnergyRange,
    NotForbiddenError,
    Scenario,
    Tolerances,
    parse_scenario,
    parse_scenario_file,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)
from latticeband.scenario import _FIELDS, KINDS, _write_csv

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def make(doc):
    return parse_scenario(json.dumps(doc))


class TestParse:
    def test_minimal_trace_defaults_to_free_lattice(self):
        s = make({"kind": "trace", "energies": [1.0], "ic": [0.0, 1.0]})
        assert s.v == (0.0,) and s.u == (0.0,) and s.m == 1
        assert s.delta == 1.0 and s.n_sites == 400
        assert s.tolerances == Tolerances()

    def test_m_alone_expands_zeros(self):
        s = make({"kind": "trace", "m": 3, "energies": [1.0], "ic": [0.0, 1.0]})
        assert s.v == (0.0, 0.0, 0.0) and s.u == (0.0, 0.0, 0.0)

    def test_inconsistent_m_rejected(self):
        with pytest.raises(ConfigError, match="inconsistent potential"):
            make({"kind": "trace", "m": 3, "v": [1.0], "energies": [1.0], "ic": [0, 1]})

    def test_degenerate_hopping_is_config_error(self):
        with pytest.raises(ConfigError, match="hopping degenerate"):
            make({"kind": "trace", "u": [1.0], "energies": [1.0], "ic": [0.0, 1.0]})

    def test_fig1_defaults_to_preset_energies(self):
        s = make({"kind": "fig1"})
        assert s.energies == FIG1_ENERGIES

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "trace", "v": [NaN], "energies": [1.0], "ic": [0, 1]}',
            '{"kind": "trace", "energies": [Infinity], "ic": [0, 1]}',
        ],
    )
    def test_non_finite_number_rejected(self, text):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "tolerances", [{"grid_points": 5}, {"root_tol": 0.0}, {"root_tol": -1e-10}]
    )
    def test_scan_tolerances_bounded(self, tolerances):
        with pytest.raises(ConfigError):
            make({"kind": "fig1", "tolerances": tolerances})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            make({"kind": "bands"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown scenario fields"):
            make({"kind": "fig1", "bogus": 1})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="requires the 'energies'"):
            make({"kind": "sweep"})
        with pytest.raises(ConfigError, match="requires the 'ic'"):
            make({"kind": "trace", "energies": [1.0]})

    def test_range_kinds_need_range(self):
        with pytest.raises(ConfigError, match="range"):
            make({"kind": "validate", "energies": [1.0, 2.0]})

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"kind": "fig1", "n_sites": 3, "n_sites": 5}', "n_sites"),
            ('{"kind": "fig1", "tolerances": {"margin": 0.1, "margin": 0.2}}', "margin"),
            ('{"kind": "beat", "energies": [1], "ic": {"psi0": 0, "psi1": 1, "psi0": 1}}', "psi0"),
        ],
    )
    def test_duplicate_key_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            parse_scenario(text)

    def test_json_errors_carry_position(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_scenario('{\n "kind": }')

    def test_energy_range_parsing(self):
        s = make(
            {
                "kind": "band-scan",
                "energies": {"from": -1.0, "to": 5.0, "count": 13},
            }
        )
        assert isinstance(s.energies, EnergyRange)
        resolved = s.energy_list()
        assert len(resolved) == 13
        assert resolved[0] == -1.0 and resolved[-1] == 5.0

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_scenario_file("/no/such/file.scenario")


class TestReadme:
    def test_field_table_names_the_schema(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| field | meaning | default |\n")[1].split("\n\n")[0]
        rows = [line.split(" | ") for line in table.splitlines()[1:]]
        named = [re.findall(r"`([^`]+)`", row[0]) for row in rows]
        assert sorted(sum(named, [])) == sorted(_FIELDS)
        listed = {tuple(name): re.findall(r"`([^`]+)`", row[1]) for name, row in zip(named, rows)}
        assert tuple(listed[("kind",)]) == KINDS
        assert listed[("tolerances",)] == [f.name for f in fields(Tolerances)]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "fig1"},
            {"kind": "trace", "energies": [0.5, 2.0], "ic": [0.3, -1.0], "n_sites": 77},
            {
                "kind": "validate",
                "m": 2,
                "v": [1.0, -1.0],
                "energies": {"from": -2.0, "to": 6.0, "count": 2001},
                "claimed_edges": [1.0, 3.0],
                "tolerances": {"margin": 0.1},
            },
            {"kind": "sweep", "energies": [5.0], "angles": 90, "out": "results"},
        ],
    )
    def test_parse_serialize_roundtrip(self, doc):
        s = make(doc)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_hash_is_stable_and_content_sensitive(self):
        a = make({"kind": "fig1"})
        b = make({"kind": "fig1"})
        c = make({"kind": "fig1", "n_sites": 401})
        assert scenario_hash(a) == scenario_hash(b)
        assert scenario_hash(a) != scenario_hash(c)


class TestRun:
    def test_fig1_writes_eight_traces(self, tmp_path):
        result = run_scenario(make({"kind": "fig1"}), out_dir=tmp_path)
        csvs = sorted(p.name for p in tmp_path.glob("fig1_*.csv"))
        assert len(csvs) == 8
        assert "manifest.csv" in result.files
        header = (tmp_path / csvs[0]).read_text().splitlines()[0]
        assert header == "n,psi_scaled,log_amp,psi_reconstructed_clamped"

    def test_trace_values_have_full_precision(self, tmp_path):
        doc = {"kind": "trace", "energies": [5.0], "ic": [0.0, 1.0], "n_sites": 30}
        run_scenario(make(doc), out_dir=tmp_path)
        lines = (tmp_path / "trace_E5.csv").read_text().splitlines()
        # row 4 holds psi(3) = 8 exactly; parse back and check round-trip
        row = lines[4].split(",")
        assert float(row[3]) == 8.0
        # scaled value carries 17 significant digits
        trailing = lines[-1].split(",")[1]
        assert float(trailing) == pytest.approx(float(trailing))

    def test_band_scan_series(self, tmp_path):
        doc = {
            "kind": "band-scan",
            "m": 2,
            "v": [1.0, -1.0],
            "energies": {"from": -2.0, "to": 6.0, "count": 101},
        }
        run_scenario(make(doc), out_dir=tmp_path)
        scan = (tmp_path / "band-scan_scan.csv").read_text().splitlines()
        assert scan[0] == "E,D,class"
        assert len(scan) == 102
        edges = (tmp_path / "band-scan_edges.csv").read_text().splitlines()
        assert edges[0] == "edge_energy,which_root"
        energies = [float(line.split(",")[0]) for line in edges[1:]]
        expected = [2.0 - math.sqrt(5.0), 1.0, 3.0, 2.0 + math.sqrt(5.0)]
        assert len(energies) == 4
        for got, want in zip(energies, expected):
            assert abs(got - want) <= 1e-8

    def test_validate_pass_and_fail(self, tmp_path):
        good = parse_scenario_file(SCENARIO_DIR / "validate_period2.scenario")
        result = run_scenario(good, out_dir=tmp_path / "good")
        assert result.validation_ok is True
        bad = parse_scenario_file(SCENARIO_DIR / "corrupt_edges.scenario")
        result = run_scenario(bad, out_dir=tmp_path / "bad")
        assert result.validation_ok is False
        report = (tmp_path / "bad" / "validate_report.csv").read_text().splitlines()
        assert report[0] == "interval_lo,interval_hi,expected,oracle_verdict,pass"
        failing = [line for line in report[1:] if line.endswith(",0")]
        assert len(failing) == 1
        lo, hi = (float(x) for x in failing[0].split(",")[:2])
        assert abs(lo - 1.05) <= 1e-6 and abs(hi - 1.45) <= 1e-6

    def test_floquet_series_columns(self, tmp_path):
        s = parse_scenario_file(SCENARIO_DIR / "floquet_gap.scenario")
        run_scenario(s, out_dir=tmp_path)
        lines = (tmp_path / "floquet_E2.csv").read_text().splitlines()
        assert lines[0] == (
            "n,psi_scaled,log_amp,psi_reconstructed_clamped,"
            "lambda,kappa_site,knot_residual,ratio_residual"
        )
        lam = float(lines[1].split(",")[4])
        assert lam == pytest.approx((-3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["floquet", "effective"])
    def test_validates_potential_once_per_energy(self, kind, tmp_path, monkeypatch):
        s = make({"kind": kind, "v": [1.0, -1.0], "energies": [1.5, 2.0, 2.5], "n_sites": 40})
        calls = []
        validate = latticeband.core.validate_potential

        def counting(pot, lat):
            calls.append(1)
            return validate(pot, lat)

        for module in (latticeband.core, latticeband.bands, latticeband.floquet, latticeband.scenario):
            monkeypatch.setattr(module, "validate_potential", counting)
        run_scenario(s, out_dir=tmp_path)
        assert len(calls) == 3

    def test_floquet_in_band_is_numerical_failure(self, tmp_path):
        doc = {"kind": "floquet", "energies": [2.0], "n_sites": 40}
        with pytest.raises(NotForbiddenError):
            run_scenario(make(doc), out_dir=tmp_path)

    def test_determinism_byte_identical(self, tmp_path):
        for name in sorted(SCENARIO_DIR.glob("*.scenario")):
            s = parse_scenario_file(name)
            a = tmp_path / "a" / name.stem
            b = tmp_path / "b" / name.stem
            run_scenario(s, out_dir=a)
            run_scenario(s, out_dir=b)
            files_a = sorted(p.name for p in a.iterdir())
            files_b = sorted(p.name for p in b.iterdir())
            assert files_a == files_b
            for f in files_a:
                assert (a / f).read_bytes() == (b / f).read_bytes(), f"{name.stem}/{f}"


class TestGoldenFig1:
    def test_outputs_match_pinned_files(self, tmp_path):
        golden = Path(__file__).resolve().parent / "golden" / "fig1"
        s = parse_scenario_file(SCENARIO_DIR / "fig1.scenario")
        run_scenario(s, out_dir=tmp_path)
        pinned = sorted(p.name for p in golden.iterdir())
        assert pinned  # the golden directory is populated
        for name in pinned:
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


class TestScenarioDigests:
    def test_bundled_scenarios_match_pinned_digests(self, tmp_path):
        # golden/scenario_digests.sha256 holds the sha256 of every file each
        # bundled scenario writes, as "<digest>  <scenario>/<file>" lines
        # (sha256sum -c reads it from a directory of per-scenario outputs)
        lines = (GOLDEN_DIR / "scenario_digests.sha256").read_text().splitlines()
        pinned = {name: digest for digest, name in (line.split() for line in lines)}
        written = {}
        for path in sorted(SCENARIO_DIR.glob("*.scenario")):
            out = tmp_path / path.stem
            run_scenario(parse_scenario_file(path), out_dir=out)
            for f in out.iterdir():
                written[f"{path.stem}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
        assert sorted({name.split("/")[0] for name in pinned}) == sorted(
            p.stem for p in SCENARIO_DIR.glob("*.scenario")
        )
        assert written == pinned


def reference_cell(value) -> str:
    """One CSV cell, formatted value by value."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(reference_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e16, 1e17, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789012345678.0, 2.0**53,
]
MIXED_NUMBERS = [1, 2.5, 10**20, 1e16, 2**53 + 1, -0.0, True, -(2**70), 3.0, 0, math.nan, False]


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False)
        floats = SPECIAL_FLOATS + bits.view(np.float64).tolist()
        n = len(floats)
        columns = {
            "int": [(-1) ** k * k**5 + (10**20 if k % 7 == 0 else 0) for k in range(n)],
            "float": floats,
            "mixed": [MIXED_NUMBERS[k % len(MIXED_NUMBERS)] for k in range(n)],
            "bool": [k % 3 == 0 for k in range(n)],
            "str": ["Gap" if k % 2 else "Band" for k in range(n)],
            "np_float64": [np.float64(x) for x in floats],
            "np_int64": [np.int64(k * 10**14) for k in range(n)],
            "float_and_np_float64": [x if k % 2 else np.float64(x) for k, x in enumerate(floats)],
            "int_and_float": [k if k % 3 else float(k) / 7 for k in range(n)],
        }
        rows = tuple(zip(*columns.values()))
        path = tmp_path / "out.csv"
        _write_csv(path, tuple(columns), rows)
        assert path.read_text() == reference_csv(tuple(columns), rows)

    def test_single_column_and_no_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = tuple((x,) for x in MIXED_NUMBERS + SPECIAL_FLOATS)
        _write_csv(path, ("x",), rows)
        assert path.read_text() == reference_csv(("x",), rows)
        _write_csv(path, ("a", "b"), ())
        assert path.read_text() == "a,b\n"
