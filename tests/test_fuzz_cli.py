"""A seeded fuzzer of the command-line input: no input gives a traceback.

Each example runs `cli.main` in-process on a mutated input: a valid
`--cps` file with one to three subtrees replaced or deleted, or with
values that the reader parses replaced by literals of 5,000 characters,
an `--algebra` JSON file mutated the same way, a tuple string, a seed,
or a whole command line of options, their abbreviations and values.
Keys, literals, tuple strings, seeds and values of up to 5,000
characters are among them.  Every run prints exactly one JSON document
on stdout, nothing on stderr, and exits 0 or 1; an error is one line of
less than 512 bytes, which quotes a long input only up to a fixed
length.  The examples are derandomized and their number bounded, so the
suite is reproducible and the fuzzer costs a few seconds.
"""

import contextlib
import copy
import io
import json
import warnings
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpslie.cli import COMMANDS, main

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
# a JSON integer that int() reads, but that a message must not quote in full
BIG = int("1" * 4000)


def long_strings(pieces):
    """Strings of up to 5,000 characters: a short piece repeated, so that long ones are common."""
    return st.builds(lambda piece, count: (piece * count)[:5000], pieces, st.integers(1, 5000))


LONG_TEXT = long_strings(
    st.one_of(st.sampled_from(["1", "x", "1/", "0,", "\\", '"', "\U0001f600"]), st.text(min_size=1, max_size=3))
)

KEYS = st.one_of(
    st.sampled_from(["dim", "brackets", "i", "j", "coeffs", "matrix", "salamon", "algebra", "J", "E", "1", "4", LONG]),
    LONG_TEXT,
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.just(BIG),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "nan", "1e999", "", ROW, "(0,0,12)", "04", "x", LONG, LONG_INT]),
    st.text(max_size=4),
    LONG_TEXT,
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
    long_strings(st.sampled_from(["0,", "12+", "1", " ", "(", "(0,0,12)"])).map(lambda text: "(" + text[:4999]),
    long_strings(st.text(alphabet="()0123456789,+- ", min_size=1, max_size=3)),
)
# literals of exactly 5,000 characters, to put where a value is parsed
LONG_LITERALS = st.one_of(
    st.sampled_from([LONG, LONG_INT]),
    st.builds(
        lambda piece: (piece * 5000)[:5000],
        st.one_of(st.sampled_from(["x", "1/", "-1/0", "0,", '"']), st.text(min_size=1, max_size=3)),
    ),
)
SEEDS = st.one_of(st.integers(-(10**6), 10**6).map(str), LONG_TEXT, long_strings(st.sampled_from(["1", "9", "-1"])))


def _subtree(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _paths(doc, path=()):
    """Every path from the root to a subtree of a JSON document."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutations(draw, doc):
    """`doc` with one to three subtrees replaced by random JSON or deleted,
    or leaves replaced by a literal of 5,000 characters.  A leaf of the base
    documents is a value the reader parses: a J or E entry, a bracket
    coefficient, an index, the dimension or the tuple string."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(["delete", "replace", "long-leaf"]))
        paths = list(_paths(doc))
        if mutation == "long-leaf":
            paths = [path for path in paths if path and not isinstance(_subtree(doc, path), (dict, list))]
            if not paths:
                continue
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(VALUES)
            continue
        parent = _subtree(doc, path[:-1])
        if mutation == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(LONG_LITERALS if mutation == "long-leaf" else VALUES)
    return doc


def _no_constant(token):
    raise ValueError(f"bare {token} in the output")


ENTRIES = tuple(f"malformed input in {entry!r}: " for entry in ("algebra", "J", "E"))


def run(argv):
    """(exit code, the one JSON document on stdout) of `cli.main`; fails on a
    warning, on anything on stderr, on any other exit code, on an error
    that is not one line of less than 512 bytes and on a "malformed input"
    error that names no entry of the input."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert err.getvalue() == "", argv
    assert code in (0, 1), argv
    text = out.getvalue()
    payload = json.loads(text, parse_constant=_no_constant)
    error = payload.get("error", "") if isinstance(payload, dict) else ""
    if error and set(payload) <= {"error", "position"}:
        assert text.count("\n") == 1 and len(text.encode()) < 512, text[:600]
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
            "coefficient 4 of pair (1,2): rational literal of 5000 characters has too many digits",
        ),
        ({**CPS, "J": {"matrix": [[LONG] * 6] * 6}}, "entry (1,1) of J: rational literal of 5000 characters has too many digits"),
        ({**CPS, "algebra": {**ALGEBRA, "dim": LONG_INT}}, "JSON integer of 5000 characters has too many digits"),
    ],
    ids=["index-key", "coefficient", "matrix-entry", "dim"],
)
def test_an_oversized_number_gets_a_short_error_of_its_own(tmp_path, doc, error):
    """A number of more digits than int() reads gets the package's message,
    which does not quote it, not Python's integer-conversion limit; the
    message of a coefficient names its pair and index, and that of a
    matrix entry names the matrix and the entry."""
    code, payload = run(["check-structure", "--cps", _write(tmp_path / "cps.json", doc)])
    assert (code, payload) == (1, {"error": error})


LONG_X = "x" * 5000


@pytest.mark.parametrize(
    "argv, cps, named",
    [
        (["parse", ROW, "--seed", LONG], None, "argument --seed: invalid int value: '1111"),
        (["nonexistence", LONG_X], None, "... (5000 characters) is not one of the excluded algebras"),
        (
            ["check-structure", "--cps"],
            json.dumps({**CPS, "algebra": {"dim": 6, "brackets": [{"i": 1, "j": 2, "coeffs": {LONG_X: "1"}}]}}),
            "... (5000 characters) of pair (1,2) must be a decimal integer",
        ),
        (
            ["check-structure", "--cps"],
            json.dumps({**CPS, "J": {"matrix": [[LONG_X] * 6] * 6}}),
            "entry (1,1) of J: not a rational literal (an integer or p/q): 'xxxx",
        ),
        (["check-structure", "--cps"], '{"%s": 1, "%s": 2}' % (LONG_X, LONG_X), "... (5000 characters) appears twice"),
        ([LONG_X], None, "invalid choice: 'xxxx"),
        (["parse", ROW, LONG_X], None, "unrecognized arguments: 'xxxx"),
        (["parse", ROW, "--=" + LONG_X], None, "ambiguous option: '--=xxxx"),
        (["parse", ROW, "--help=" + LONG_X], None, "argument -h/--help: ignored explicit argument 'xxxx"),
        (["parse", ROW, "-hh" + LONG_X], None, "argument -h/--help: ignored explicit argument 'xxxx"),
        (["parse", ROW, "--seed=" + LONG], None, "argument --seed: invalid int value: '1111"),
        (["check-structure", "--cps", LONG_X], None, "File name too long: 'xxxx"),
        (["check-structure", "--cps"], "[" * 100_000, " characters): JSON nested too deeply"),
        # shortened once, though the 63 characters it keeps are also a long part of it
        (["parse", ROW, "-" * 64], None, "unrecognized arguments: '%s... (64 characters)" % ("-" * 63)),
    ],
    ids=[
        "seed", "tuple-string", "index-key", "matrix-entry", "duplicate-key", "command", "extra-argument",
        "ambiguous-option", "help-value", "stacked-help-flags", "seed-equals", "cps-path", "deep-json",
        "option-of-64",
    ],
)
def test_a_long_input_gets_one_short_error_line(tmp_path, argv, cps, named):
    """An input of 5,000 characters is quoted only up to a fixed length, so
    its error is one JSON line of less than 512 bytes (`run` checks that),
    and the line says where the input is.  The file lies in a directory
    whose path is longer than that length, so a message quoting the path
    quotes it shortened."""
    if cps is not None:
        path = tmp_path / ("d" * 64) / "cps.json"
        path.parent.mkdir()
        path.write_text(cps)
        argv = argv + [str(path)]
    code, payload = run(argv)
    assert code == 1 and named in payload["error"], payload


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["\u00e9" * 3],
        ["parse", ROW, "zz", "\u00e9"],
        ["parse", ROW, "--cps", "x", "-q"],
        ["parse", ROW, "--seed", "x"],
        ["parse", ROW, "--seed=x"],
        ["parse", ROW, "--bogus=1"],
        ["check-structure", "--cps", "missing.json"],
    ],
    ids=[
        "command", "non-ascii-command", "extra-arguments", "extra-options",
        "seed", "seed-equals", "unknown-option-value", "cps-path",
    ],
)
def test_a_short_usage_error_keeps_the_argparse_message(tmp_path, monkeypatch, argv):
    """Quoting long tokens through `_shown` leaves the message on short ones, byte for byte:
    argparse's own, or Python's for a file that cannot be opened."""
    from cpslie import cli

    monkeypatch.chdir(tmp_path)
    ours = run(argv)
    monkeypatch.setattr(cli, "_bounded", lambda message, argv: message)
    assert ours[0] == 1 and run(argv) == ours


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


@SETTINGS
@given(seed=SEEDS, command=st.sampled_from(SALAMON_COMMANDS))
def test_seed(seed, command):
    run([command, ROW, "--seed", seed])


LONG_VALUES = st.builds(lambda piece: (piece * 5000)[:5000], st.text(min_size=1, max_size=3))
# a token that argparse could read as a request for help (-h, -hh, --h, --he, ...)
# or as a long option is drawn only as one of ARGUMENTS, none of which asks for help
FREE = st.one_of(
    st.sampled_from(["cps.json", "missing.json", ROW, "(0,0,12)", "0", "-1", ""]),
    st.text(max_size=4),
    LONG_TEXT,
    TUPLES,
    SEEDS,
    LONG_VALUES,
).filter(lambda token: not token.startswith(("-h", "--")))
# an --out value names a directory or is longer than a path can be, so no run writes a file
OUT = st.one_of(st.just("."), LONG_VALUES)
OPTIONS = ["--algebra", "--cps", "--out", "--seed", "--bogus", "--help"]
# every prefix of an option joined with "=value", "-" and the ambiguous "--" among them;
# the value is long half the time, since argparse quotes it; those that name --out take an --out value
OUT_PREFIXES = ["--o", "--ou", "--out"]
PREFIXES = sorted({option[:k] for option in OPTIONS for k in range(1, len(option) + 1)} - set(OUT_PREFIXES))
ARGUMENTS = st.one_of(
    st.tuples(st.sampled_from(["--algebra", "--cps", "--seed", "--bogus"]), FREE),
    st.tuples(st.just("--out"), OUT),
    st.builds(lambda prefix, value: (f"{prefix}={value}",), st.sampled_from(PREFIXES), st.one_of(LONG_VALUES, FREE)),
    st.builds(lambda prefix, value: (f"{prefix}={value}",), st.sampled_from(OUT_PREFIXES), OUT),
    st.just(("--",)),
    st.tuples(FREE),
)
ARGVS = st.builds(
    lambda first, rest: [first, *chain.from_iterable(rest)],
    st.sampled_from([*sorted(COMMANDS), None]).flatmap(lambda name: FREE if name is None else st.just(name)),
    st.lists(ARGUMENTS, max_size=6),
)


@SETTINGS
@given(argv=ARGVS)
def test_command_line(tmp_path, monkeypatch, argv):
    """Whole command lines: a command name or junk, then options, abbreviations
    of them joined with a value, "--" and values of up to 5,000 characters."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "cps.json", CPS)
    run(argv)
