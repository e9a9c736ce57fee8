"""Property test: any small scenario document ends in a documented exit code."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from latticeband import cli  # noqa: E402
from latticeband.scenario import KINDS  # noqa: E402

# Replacement values for up to two fields: wrong types, and numbers at or
# past the bounds of the fields that take numbers.
BAD_VALUES = [
    None, True, "x", [], {}, -1, 0, 1, 7, 15, 2.5, -0.0, 1e-300, 1e300,
    10**400, 10**6 + 1, [1.0, "x"], {"from": 1}, {"psi0": 0.0, "psi1": 0.0},
]
FIELDS = [
    "kind", "delta", "m", "v", "u", "energies", "n_sites", "ic", "angles",
    "branch", "claimed_edges", "out", "tolerances", "surplus",
]
TOLERANCE_FIELDS = ["tol_edge", "root_tol", "grid_points", "margin"]


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(1, 4))
    lo = draw(floats(-3.0, 5.0))
    doc = {
        "kind": kind,
        "m": m,
        "v": draw(st.lists(floats(-1.5, 1.5), min_size=m, max_size=m)),
        "u": draw(st.lists(floats(-0.3, 1.2), min_size=m, max_size=m)),
        "energies": draw(
            st.one_of(
                st.lists(floats(-3.0, 7.0), min_size=1, max_size=3),
                st.fixed_dictionaries(
                    {
                        "from": st.just(lo),
                        "to": floats(lo - 1.0, lo + 6.0),
                        "count": st.integers(1, 50),
                    }
                ),
            )
        ),
        "n_sites": draw(st.integers(2, 200)),
        "ic": draw(st.lists(floats(-1.0, 1.0), min_size=2, max_size=2)),
        "angles": draw(st.integers(8, 24)),
        "branch": draw(st.sampled_from(["growing", "decaying", "plus", "minus"])),
    }
    if kind == "validate" and draw(st.booleans()):
        doc["claimed_edges"] = draw(st.lists(floats(-3.0, 11.0), min_size=1, max_size=4))
    if draw(st.booleans()):
        doc["tolerances"] = {
            "grid_points": draw(st.integers(16, 400)),
            "margin": draw(floats(1e-6, 1.0)),
        }
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(FIELDS + TOLERANCE_FIELDS))
        value = draw(st.sampled_from(BAD_VALUES))
        if field in TOLERANCE_FIELDS and isinstance(doc.get("tolerances", {}), dict):
            doc.setdefault("tolerances", {})[field] = value
        else:
            doc[field] = value
    return doc


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=documents(), command=st.sampled_from(["run", "validate"]))
def test_every_document_ends_in_an_exit_code(tmp_path, doc, command):
    path = tmp_path / "doc.scenario"
    path.write_text(json.dumps(doc))
    argv = [command, str(path), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
