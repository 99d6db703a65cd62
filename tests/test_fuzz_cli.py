"""A seeded fuzzer of the command-line input: no input gives a traceback.

Each example runs `cli.main` in-process on a mutated input: a valid
`--cps` file with one to three subtrees replaced or deleted, an
`--algebra` JSON file mutated the same way, or a tuple string.  Every
run prints exactly one JSON document on stdout, nothing on stderr, and
exits 0 or 1.  The examples are derandomized and their number bounded,
so the suite is reproducible and the fuzzer costs a few seconds.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpslie.cli import main

CPS_COMMANDS = ["check-structure", "connection-report", "hypercomplex", "geodesic"]
SALAMON_COMMANDS = ["parse", "nonexistence"]

ROW = "(0,0,0,12,13,14)"
J = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
]
E = [[(-1) ** i if i == j else 0 for j in range(6)] for i in range(6)]
ALGEBRA = {
    "dim": 6,
    "brackets": [
        {"i": 1, "j": 2, "coeffs": {"4": "-1"}},
        {"i": 1, "j": 3, "coeffs": {"5": "-1"}},
        {"i": 1, "j": 4, "coeffs": {"6": "-1"}},
    ],
}
CPS = {
    "algebra": {"salamon": ROW},
    "J": {"matrix": [[str(x) for x in row] for row in J]},
    "E": {"matrix": [[str(x) for x in row] for row in E]},
}

# too_slow times data generation, which follows the load of a shared host;
# the examples are fixed by derandomize, so only their count bounds the cost
SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# more digits than int() reads (4300 by default): as an object key, as a
# string, and, through the placeholder LONG_INT, as a bare JSON integer
LONG = "1" * 5000
LONG_INT = "<bare JSON integer LONG>"

KEYS = st.sampled_from(["dim", "brackets", "i", "j", "coeffs", "matrix", "salamon", "algebra", "J", "E", "1", "4", LONG])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "nan", "1e999", "", ROW, "(0,0,12)", "04", "x", LONG, LONG_INT]),
    st.text(max_size=4),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.one_of(KEYS, st.text(max_size=3)), inner, max_size=4),
    ),
    max_leaves=12,
)
TUPLES = st.one_of(
    st.text(alphabet="()0123456789,+- ", max_size=30),
    st.lists(st.sampled_from(["0", "12", "13", "14+23", "-24", "42", "12+12", "99"]), min_size=1, max_size=8).map(
        lambda entries: "(" + ",".join(entries) + ")"
    ),
)


def _paths(doc, path=()):
    """Every path from the root to a subtree of a JSON document."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutations(draw, doc):
    """`doc` with one to three subtrees replaced by random JSON or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return doc


def _no_constant(token):
    raise ValueError(f"bare {token} in the output")


ENTRIES = tuple(f"malformed input in {entry!r}: " for entry in ("algebra", "J", "E"))


def run(argv):
    """(exit code, the one JSON document on stdout) of `cli.main`; fails on a
    warning, on anything on stderr, on any other exit code and on a
    "malformed input" error that names no entry of the input."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert err.getvalue() == "", argv
    assert code in (0, 1), argv
    payload = json.loads(out.getvalue(), parse_constant=_no_constant)
    error = payload.get("error", "") if isinstance(payload, dict) else ""
    assert not error.startswith("malformed input") or error.startswith(ENTRIES), error
    return code, payload


def _write(path, doc):
    path.write_text(json.dumps(doc).replace(json.dumps(LONG_INT), LONG))
    return str(path)


def test_the_base_inputs_are_valid(tmp_path):
    cps = _write(tmp_path / "cps.json", CPS)
    algebra = _write(tmp_path / "algebra.json", ALGEBRA)
    for command in CPS_COMMANDS:
        assert run([command, "--cps", cps])[0] == run([command, "--cps", cps, "--algebra", algebra])[0] == 0


@pytest.mark.parametrize(
    "doc, error",
    [
        ({**CPS, "algebra": None}, "malformed input in 'algebra': "),
        ({**CPS, "J": [1, 2]}, "malformed input in 'J': "),
        ({**CPS, "E": None}, "malformed input in 'E': "),
        ([CPS], "the CPS file must hold a JSON object with entries 'J' and 'E'"),
    ],
    ids=["algebra", "J", "E", "not-an-object"],
)
def test_malformed_input_names_its_entry(tmp_path, doc, error):
    code, payload = run(["check-structure", "--cps", _write(tmp_path / "cps.json", doc)])
    assert code == 1 and payload["error"].startswith(error), payload


@pytest.mark.parametrize(
    "doc, error",
    [
        (
            {**CPS, "algebra": {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {LONG: "1"}}]}},
            "coefficient index of pair (1,2) has 5000 digits, over the maximum dimension 16",
        ),
        (
            {**CPS, "algebra": {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": LONG}}]}},
            "rational literal of 5000 characters has too many digits",
        ),
        ({**CPS, "J": {"matrix": [[LONG] * 6] * 6}}, "rational literal of 5000 characters has too many digits"),
        ({**CPS, "algebra": {**ALGEBRA, "dim": LONG_INT}}, "JSON integer of 5000 characters has too many digits"),
    ],
    ids=["index-key", "coefficient", "matrix-entry", "dim"],
)
def test_an_oversized_number_gets_a_short_error_of_its_own(tmp_path, doc, error):
    """A number of more digits than int() reads gets the package's message,
    which does not quote it, not Python's integer-conversion limit."""
    code, payload = run(["check-structure", "--cps", _write(tmp_path / "cps.json", doc)])
    assert (code, payload) == (1, {"error": error})


@SETTINGS
@given(doc=st.one_of(mutations(CPS), mutations({**CPS, "algebra": ALGEBRA})), command=st.sampled_from(CPS_COMMANDS))
def test_mutated_cps_file(tmp_path, doc, command):
    run([command, "--cps", _write(tmp_path / "cps.json", doc)])


@SETTINGS
@given(doc=mutations(ALGEBRA), command=st.sampled_from(CPS_COMMANDS))
def test_mutated_algebra_file(tmp_path, doc, command):
    cps = _write(tmp_path / "cps.json", CPS)
    run([command, "--cps", cps, "--algebra", _write(tmp_path / "algebra.json", doc)])


@SETTINGS
@given(text=TUPLES, command=st.sampled_from(SALAMON_COMMANDS + CPS_COMMANDS))
def test_tuple_string(tmp_path, text, command):
    if command in CPS_COMMANDS:
        run([command, "--cps", _write(tmp_path / "cps.json", CPS), "--algebra", text])
    else:
        run([command, text])
