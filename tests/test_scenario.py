import json
import math
from pathlib import Path

import pytest

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

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
