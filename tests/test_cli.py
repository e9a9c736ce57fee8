import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticeband import LatticeSpec, PeriodicPotential, SpectralClass, classify_energy, cli

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


@pytest.mark.parametrize("m", [500, 1000])
def test_period_map_overflow_is_numerical_failure(tmp_path, m):
    # at m = 1000 the edge scan overflows; at m = 500 only the scan rows at
    # the ends of the range do, which would print D = nan
    rng = np.random.default_rng(7)
    doc = {
        "kind": "band-scan",
        "m": m,
        "v": rng.uniform(-1.0, 1.0, m).tolist(),
        "u": rng.uniform(-0.2, 0.2, m).tolist(),
        "energies": {"from": -3.0, "to": 7.0, "count": 11},
    }
    long = tmp_path / "long.scenario"
    long.write_text(json.dumps(doc))
    cp = run_cli("run", long, "--out", tmp_path / "out")
    assert cp.returncode == 2
    assert "numerical failure" in cp.stderr and "period map overflows" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr


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


def test_validate_rechecks_with_the_diagram_tolerance(tmp_path):
    # edges bisected to 1e-4 are recomputed to 1e-4 as well, so no sliver
    # between a coarse edge and a fine one is judged as a zone of its own
    cp = run_cli(
        "validate", SCENARIO_DIR / "band_scan_period2.scenario", "--out", tmp_path,
        "--tol", "1e-4",
    )
    assert cp.returncode == 0, cp.stderr
    report = (tmp_path / "validate_report.csv").read_text().splitlines()
    assert len(report) == 6
    assert all(line.endswith(",1") for line in report[1:])


@pytest.mark.parametrize("claimed", [[0, 2, 2, 4], [0, 0, 4]], ids=["closed-gap", "repeated-edge"])
def test_repeated_claimed_edge_passes_validate(tmp_path, claimed):
    # free m = 2: the gap at 2 is closed, so the true edges are 0, 2, 2 and 4
    doc = {
        "kind": "validate",
        "m": 2,
        "energies": {"from": -1.0, "to": 5.0, "count": 601},
        "claimed_edges": claimed,
    }
    claim = tmp_path / "claim.scenario"
    claim.write_text(json.dumps(doc))
    assert cli.main(["validate", str(claim), "--out", str(tmp_path / "out")]) == 0


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
        ("run", '{"kind": "band-scan", "delta": 1e-154, %s}' % RANGE),
        ("run", '{"kind": "band-scan", "v": [1, -1], %s, "tolerances": {"tol_edge": -1}}' % RANGE),
        ("run", '{"kind": "band-scan", %s, "tolerances": {"tol_edge": 2}}' % RANGE),
    ],
    ids=[
        "angles", "margin", "reversed-range", "empty-range", "validate-reversed-range",
        "huge-int", "n-sites", "claimed-outside-range", "overflowing-step",
        "negative-tol-edge", "tol-edge-two",
    ],
)
def test_bad_field_is_config_error(tmp_path, command, doc):
    bad = tmp_path / "bad.scenario"
    bad.write_text(doc)
    cp = run_cli(command, bad, "--out", tmp_path)
    assert cp.returncode == 1
    assert "config error" in cp.stderr
    assert "Traceback" not in cp.stderr


def written(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_scan_override_equals_the_same_tolerances_in_the_file(tmp_path):
    # the manifest hashes the tolerances that were used, wherever they came from
    doc = json.loads((SCENARIO_DIR / "band_scan_period2.scenario").read_text())
    doc["tolerances"] = {"grid_points": 64, "root_tol": 1e-6}
    tuned = tmp_path / "tuned.scenario"
    tuned.write_text(json.dumps(doc))
    cp = run_cli(
        "run", SCENARIO_DIR / "band_scan_period2.scenario", "--out", tmp_path / "flags",
        "--grid", 64, "--tol", 1e-6,
    )
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("run", tuned, "--out", tmp_path / "file")
    assert cp.returncode == 0, cp.stderr
    assert written(tmp_path / "flags") == written(tmp_path / "file")


def test_validate_equals_run_of_the_validate_kind(tmp_path):
    doc = json.loads((SCENARIO_DIR / "band_scan_period2.scenario").read_text())
    doc["kind"] = "validate"
    as_validate = tmp_path / "validate.scenario"
    as_validate.write_text(json.dumps(doc))
    cp = run_cli(
        "validate", SCENARIO_DIR / "band_scan_period2.scenario", "--out", tmp_path / "command"
    )
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("run", as_validate, "--out", tmp_path / "kind")
    assert cp.returncode == 0, cp.stderr
    assert written(tmp_path / "command") == written(tmp_path / "kind")


def test_validate_outputs_match_pinned_digests(tmp_path):
    # golden/validate_digests.sha256 holds the sha256 of every file that
    # `latticeband validate` writes for these scenarios, as
    # "<digest>  <scenario>/<file>" lines (sha256sum -c reads it too)
    golden = Path(__file__).resolve().parent / "golden" / "validate_digests.sha256"
    pinned = {name: digest for digest, name in map(str.split, golden.read_text().splitlines())}
    codes = {
        "band_scan_period2": 0, "closed_gap_claim": 0, "validate_period2": 0, "corrupt_edges": 3
    }
    assert sorted({name.split("/")[0] for name in pinned}) == sorted(codes)
    got = {}
    for name, code in codes.items():
        out = tmp_path / name
        assert cli.main(["validate", str(SCENARIO_DIR / f"{name}.scenario"), "--out", str(out)]) == code
        for f in out.iterdir():
            got[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    assert got == pinned


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
def test_out_of_memory_is_numerical_failure(tmp_path, monkeypatch, capsys, message):
    # stands in for the dense Bloch matrix of a very long period
    def no_memory(matrix):
        raise MemoryError(message)

    monkeypatch.setattr(np.linalg, "eigvalsh", no_memory)
    scenario = SCENARIO_DIR / "band_scan_period2.scenario"
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("latticeband: numerical failure: out of memory")
    assert message in err and err.count("\n") == 1


# A sweep at m = 3 scores two windows of 3 sites, so it needs 5 sites; a
# floquet series at m = 3 compares ratios 3 sites apart, so it needs 4. One
# site fewer is a config error before any work, and the minimum runs.
@pytest.mark.parametrize("kind,least", [("sweep", 5), ("floquet", 4)])
def test_shortest_trace_runs_and_one_site_fewer_is_config_error(tmp_path, kind, least):
    doc = {"kind": kind, "m": 3, "v": [0.5, -0.5, 0.2], "energies": [5.0], "angles": 8}
    bad = tmp_path / "short.scenario"
    bad.write_text(json.dumps({**doc, "n_sites": least - 1}))
    cp = run_cli("run", bad, "--out", tmp_path / "short")
    assert cp.returncode == 1
    assert f"config error: kind '{kind}' needs n_sites >= {least}" in cp.stderr
    assert not (tmp_path / "short").exists()
    assert run_doc(tmp_path, {**doc, "n_sites": least}) == 0


# An effective profile has no value at its two end sites and compares m
# pairs of defined sites one period apart, so it needs 2m + 1 sites. One site
# fewer leaves too few pairs and is a config error before any work; the
# minimum runs.
@pytest.mark.parametrize(
    "doc,least",
    [
        ({"kind": "effective", "energies": [4.5]}, 3),
        ({"kind": "effective", "m": 3, "v": [1.0, -1.0, 0.5], "energies": [5.0]}, 7),
    ],
)
def test_effective_needs_2m_plus_1_sites(tmp_path, doc, least):
    bad = tmp_path / "short.scenario"
    bad.write_text(json.dumps({**doc, "n_sites": least - 1}))
    cp = run_cli("run", bad, "--out", tmp_path / "short")
    assert cp.returncode == 1
    m = doc.get("m", 1)
    assert f"config error: kind 'effective' needs n_sites >= {least} at m = {m}" in cp.stderr
    assert not (tmp_path / "short").exists()
    assert run_doc(tmp_path, {**doc, "n_sites": least}) == 0


def run_doc(tmp_path, doc, name="doc"):
    path = tmp_path / f"{name}.scenario"
    path.write_text(json.dumps(doc))
    return cli.main(["run", str(path), "--out", str(tmp_path / name)])


# On the free lattice D = 2 - E: |D| = 2.5 at E = 4.5 and 1.9 at E = 3.9, so
# tol_edge 1.0 and 1.9 make these energies edges.
@pytest.mark.parametrize(
    "doc,tol_edge",
    [
        ({"kind": "floquet", "energies": [4.5], "n_sites": 40}, 1.0),
        ({"kind": "effective", "energies": [4.5], "n_sites": 40}, 1.0),
        ({"kind": "beat", "energies": [3.9], "n_sites": 400}, 1.9),
    ],
)
def test_gap_solution_kinds_classify_with_the_document_tol_edge(tmp_path, capsys, doc, tol_edge):
    energy = doc["energies"][0]
    assert classify_energy(PeriodicPotential.free(), LatticeSpec(), energy, tol_edge).kind == (
        SpectralClass.EDGE
    )
    assert run_doc(tmp_path, doc, "default") == cli.EXIT_OK
    tuned = {**doc, "tolerances": {"tol_edge": tol_edge}}
    assert run_doc(tmp_path, tuned, "tuned") == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_band_scan_rows_keep_their_tol_edge_class(tmp_path):
    doc = {
        "kind": "band-scan",
        "energies": {"from": 4.5, "to": 5.0, "count": 2},
        "tolerances": {"tol_edge": 1.0},
    }
    assert run_doc(tmp_path, doc) == cli.EXIT_OK
    out = tmp_path / "doc"
    assert (out / "band-scan_scan.csv").read_bytes() == b"E,D,class\n4.5,-2.5,Edge\n5,-3,Edge\n"
    assert (out / "band-scan_edges.csv").read_bytes() == b"edge_energy,which_root\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"kind": "trace", "u": [0.5], "energies": [-1e308], "ic": [0, 1], "n_sites": 4},
            "the step coefficient (c - E)/h overflows at E = -1e+308",
        ),
        (
            {"kind": "trace", "delta": 1.2e-154, "energies": [-1e308], "ic": [0, 1], "n_sites": 4},
            "the step coefficient (c - E)/h overflows at E = -1e+308",
        ),
        (
            {"kind": "sweep", "u": [0.5], "energies": [-1e308], "n_sites": 40},
            "the step coefficient (c - E)/h overflows at E = -1e+308",
        ),
        (
            # every coefficient is finite, but a * psi(1) is not
            {"kind": "trace", "u": [0.5], "energies": [-5e299], "ic": [0, 1e10], "n_sites": 4},
            "the recurrence overflows at site 2 for E = -5e+299",
        ),
    ],
)
def test_overflowing_recurrence_is_numerical_failure(tmp_path, capsys, doc, message):
    # these wrote rows of nan,inf,nan and exited 0
    path = tmp_path / "overflow.scenario"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err
    assert not list(tmp_path.glob("out/*.csv"))
