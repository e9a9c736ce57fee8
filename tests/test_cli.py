import subprocess
import sys
from pathlib import Path

import pytest

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*args):
    cmd = [sys.executable, "-m", "latticeband", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "run" in cp.stdout and "validate" in cp.stdout


def test_version():
    cp = run_cli("--version")
    assert cp.returncode == 0
    assert cp.stdout.startswith("latticeband ")


def test_run_fig1(tmp_path):
    cp = run_cli("run", SCENARIO_DIR / "fig1.scenario", "--out", tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert len(list(tmp_path.glob("fig1_*.csv"))) == 8
    assert (tmp_path / "manifest.csv").is_file()


def test_run_missing_file_is_config_error(tmp_path):
    cp = run_cli("run", tmp_path / "missing.scenario")
    assert cp.returncode == 1
    assert "config error" in cp.stderr


def test_run_degenerate_hopping_is_config_error(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text('{"kind": "trace", "u": [1.0], "energies": [1.0], "ic": [0, 1]}')
    cp = run_cli("run", bad, "--out", tmp_path)
    assert cp.returncode == 1
    assert "hopping degenerate" in cp.stderr


def test_run_floquet_in_band_is_numerical_failure(tmp_path):
    bad = tmp_path / "inband.scenario"
    bad.write_text('{"kind": "floquet", "energies": [2.0], "n_sites": 40}')
    cp = run_cli("run", bad, "--out", tmp_path)
    assert cp.returncode == 2
    assert "numerical failure" in cp.stderr


def test_run_corrupt_edges_is_validation_mismatch(tmp_path):
    cp = run_cli("run", SCENARIO_DIR / "corrupt_edges.scenario", "--out", tmp_path)
    assert cp.returncode == 3
    assert (tmp_path / "validate_report.csv").is_file()


def test_validate_subcommand(tmp_path):
    cp = run_cli(
        "validate", SCENARIO_DIR / "band_scan_period2.scenario", "--out", tmp_path
    )
    assert cp.returncode == 0, cp.stderr
    report = (tmp_path / "validate_report.csv").read_text().splitlines()
    assert all(line.endswith(",1") for line in report[1:])


def test_validate_needs_scan_range(tmp_path):
    bad = tmp_path / "list.scenario"
    bad.write_text('{"kind": "trace", "energies": [1.0], "ic": [0, 1]}')
    cp = run_cli("validate", bad, "--out", tmp_path)
    assert cp.returncode == 1
    assert "range" in cp.stderr


@pytest.mark.parametrize(
    "flag,value", [("--grid", 0), ("--grid", 5), ("--tol", 0)]
)
def test_bad_scan_override_is_config_error(tmp_path, flag, value):
    cp = run_cli(
        "run", SCENARIO_DIR / "band_scan_period2.scenario", "--out", tmp_path, flag, value
    )
    assert cp.returncode == 1
    assert "config error" in cp.stderr
    assert "Traceback" not in cp.stderr


RANGE = '"energies": {"from": -1, "to": 5, "count": 3}'
REVERSED = '"energies": {"from": 5, "to": -1, "count": 3}'


@pytest.mark.parametrize(
    "command,doc",
    [
        ("run", '{"kind": "sweep", "energies": [5.0], "angles": 7}'),
        ("run", '{"kind": "validate", %s, "tolerances": {"margin": 0}}' % RANGE),
        ("run", '{"kind": "band-scan", %s}' % REVERSED),
        ("run", '{"kind": "band-scan", "energies": {"from": 1, "to": 1, "count": 3}}'),
        ("validate", '{"kind": "trace", %s, "ic": [0, 1]}' % REVERSED),
        ("run", '{"kind": "trace", "energies": [1%s], "ic": [0, 1]}' % ("0" * 400)),
        ("run", '{"kind": "trace", "energies": [1.0], "ic": [0, 1], "n_sites": 1000001}'),
        ("run", '{"kind": "validate", %s, "claimed_edges": [6.0]}' % RANGE),
    ],
    ids=[
        "angles", "margin", "reversed-range", "empty-range", "validate-reversed-range",
        "huge-int", "n-sites", "claimed-outside-range",
    ],
)
def test_bad_field_is_config_error(tmp_path, command, doc):
    bad = tmp_path / "bad.scenario"
    bad.write_text(doc)
    cp = run_cli(command, bad, "--out", tmp_path)
    assert cp.returncode == 1
    assert "config error" in cp.stderr
    assert "Traceback" not in cp.stderr
