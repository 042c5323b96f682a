"""The `key = value` and JSON readers, alone and under the CLI on mutated inputs."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec import bundled
from hdspec.cli import main
from hdspec.quantity import FINITE, OPTIONAL_FINITE, OPTIONAL_TEXT, POSITIVE, TEXT, Rule, read_json, read_keys


def write(tmp_path, name, text):
    path = Path(tmp_path) / name
    path.write_text(text, encoding="utf-8")
    return path


# --- read_keys -------------------------------------------------------------------

RULES = {"a": FINITE, "b": POSITIVE, "c": OPTIONAL_FINITE}


def test_read_keys_reads_values_and_skips_comments_and_blank_lines(tmp_path):
    path = write(tmp_path, "k.txt", "# head\n\na = -1.5  # tail\n  b=2\n")
    assert read_keys(path, RULES) == {"a": -1.5, "b": 2.0}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a 1\n", ":1: expected key = value, got 'a 1'"),
        ("a = 1\nx = 2\n", ":2: unknown key 'x'"),
        ("a = 1\na = 2\n", ":2: duplicate key a"),
        ("a = abc\n", ":1: a has a bad numeric value 'abc'"),
        ("a = \n", ":1: a has a bad numeric value ''"),
        ("a = nan\n", ":1: a must be finite"),
        ("b = 0\n", ":1: b must be finite and positive"),
        ("a = 1\n", ": missing key b"),
    ],
)
def test_read_keys_names_each_fault(tmp_path, text, message):
    path = write(tmp_path, "k.txt", text)
    with pytest.raises(ValueError) as exc:
        read_keys(path, RULES)
    assert str(exc.value) == f"{path}{message}"


SECTION = re.compile(r"^\[(\w+)\]$")


def test_read_keys_by_section(tmp_path):
    path = write(tmp_path, "s.txt", "# sections\n[x]\nb = 1\n\n[y]\nb = 2\nc = 3\n")
    sections = read_keys(path, RULES | {"a": OPTIONAL_FINITE}, SECTION)
    assert [(m.group(1), line, values) for m, line, values in sections] == [
        ("x", 2, {"b": 1.0}),
        ("y", 5, {"b": 2.0, "c": 3.0}),
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("b = 1\n[x]\n", ":1: b is outside of a section"),
        ("[x]\nb = 1\nb = 2\n", ":3: duplicate key b"),
        ("[x]\nb = 1\n[y]\n", ": [y] missing key b"),
    ],
)
def test_read_keys_by_section_names_each_fault(tmp_path, text, message):
    path = write(tmp_path, "s.txt", text)
    with pytest.raises(ValueError) as exc:
        read_keys(path, {"b": POSITIVE}, SECTION)
    assert str(exc.value) == f"{path}{message}"


# --- read_json -------------------------------------------------------------------

SHAPE = {
    "name": TEXT,
    "note": OPTIONAL_TEXT,
    "unit": Rule("must be kHz", choices=frozenset({"kHz"})),
    "rows": [{"x": FINITE, "u": POSITIVE}],
    "pair": [OPTIONAL_FINITE, OPTIONAL_FINITE],
}


def test_read_json_returns_numbers_as_floats(tmp_path):
    doc = {"name": "n", "unit": "kHz", "rows": [{"x": 1, "u": "2.5"}, {"x": -0.5, "u": 1e-300}], "pair": [3, 4]}
    path = write(tmp_path, "d.json", json.dumps(doc))
    out = read_json(path, SHAPE)
    assert out == {"name": "n", "unit": "kHz", "rows": [{"x": 1.0, "u": 2.5}, {"x": -0.5, "u": 1e-300}], "pair": [3.0, 4.0]}
    assert all(type(v) is float for row in out["rows"] for v in row.values())


def test_read_json_leaves_out_absent_optional_keys(tmp_path):
    path = write(tmp_path, "d.json", '{"name": "n", "unit": "kHz", "rows": []}')
    assert read_json(path, SHAPE) == {"name": "n", "unit": "kHz", "rows": []}


GOOD = {"name": "n", "unit": "kHz", "rows": [{"x": 1.0, "u": 2.0}]}


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"rows": [{"x": 1.0, "u": 2.0}, {"x": 1.0, "u": 0}]}, "rows[1].u must be finite and positive"),
        ({"rows": [{"x": "nan", "u": 1.0}]}, "rows[0].x must be finite"),
        ({"rows": [{"x": 10 ** 400, "u": 1.0}]}, "rows[0].x must be finite"),
        ({"rows": [{"x": "abc", "u": 1.0}]}, "rows[0].x has a bad numeric value 'abc'"),
        ({"rows": [{"x": True, "u": 1.0}]}, "rows[0].x must be a number"),
        ({"rows": [{"x": None, "u": 1.0}]}, "rows[0].x must be a number"),
        ({"rows": [{"x": [1], "u": 1.0}]}, "rows[0].x must be a number"),
        ({"rows": [{"x": 1.0}]}, "rows[0].u is missing"),
        ({"rows": [{"x": 1.0, "u": 1.0, "w": 1}]}, "rows[0].w is not a known key"),
        ({"rows": [1]}, "rows[0] must be an object"),
        ({"rows": {"x": 1}}, "rows must be a list"),
        ({"pair": [1]}, "pair must be a list of 2"),
        ({"unit": "MHz"}, "unit must be kHz"),
        ({"name": 1}, "name must be a string"),
        ({"note": None}, "note must be a string"),
        ({"extra": 1}, "extra is not a known key"),
    ],
)
def test_read_json_names_the_key_path_of_each_fault(tmp_path, edit, message):
    path = write(tmp_path, "d.json", json.dumps(GOOD | edit))
    with pytest.raises(ValueError) as exc:
        read_json(path, SHAPE)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "the document must be an object"),
        ('{"name": "n"', "Expecting ',' delimiter"),
        ("[" * 100000, "maximum recursion depth"),
        ("{\"name\": \"\udcff\"}".encode("utf-8", "surrogateescape"), "can't decode byte"),
    ],
)
def test_read_json_names_the_path_of_a_document_fault(tmp_path, text, message):
    path = tmp_path / "d.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError) as exc:
        read_json(path, SHAPE)
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)


# --- the CLI on mutated documents and drawn key files ----------------------------


def _bundled_json(name):
    return json.loads(bundled.data_path(name).read_text(encoding="utf-8"))


LEDGER = [
    {"name": "rf", "correction_khz": 0.125, "uncertainty_khz": 0.04, "basis": "measured-extrapolation", "note": "x"},
    {"name": "light", "uncertainty_khz": 0.2, "basis": "theoretical-bound"},
    {"name": "zero", "basis": "set-to-zero"},
]
# command line before the input path, the document it mutates
JSON_COMMANDS = {
    "composite": (["composite", "--lines"], _bundled_json("measured_lines.json")),
    "composite-optimize": (["composite", "--demo", "--optimize", "--lines"], _bundled_json("measured_lines.json")),
    "extract": (["extract", "--lines"], _bundled_json("measured_lines.json")),
    "ledger": (["ledger", "--raw-khz", "58605013478.33", "--raw-u-khz", "0.15", "--entries"], LEDGER),
    "compare": (["compare", "--input"], _bundled_json("determinations_mp_over_me.json")),
}

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    FLOATS,
    st.floats(),
    st.integers(-(10 ** 320), 10 ** 320),
    st.sampled_from([0, -0.0, 5e-324, 1e308, -1e308, 1e-300]),
)
TEXTS = st.one_of(
    st.sampled_from(["", "abc", "nan", "-inf", "1e400", " 2.5 ", "kHz", "MHz", "set-to-zero", "12", "exp"]),
    st.text(max_size=4),
)
LEAVES = st.one_of(st.none(), st.booleans(), NUMBERS, TEXTS)
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3), max_leaves=6
)


def _places(doc):
    """Every (container, key) pair of `doc`, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _places(value)


@st.composite
def mutated(draw, doc):
    """`doc` after one to three edits: a value replaced (most often by a number), a key or item dropped, or one added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        places = list(_places(doc))
        op = draw(st.sampled_from(["number", "number", "value", "drop", "add"] if places else ["add"]))
        if op == "add":
            containers = [doc, *(c[k] for c, k in places if isinstance(c[k], (dict, list)))]
            target = draw(st.sampled_from(containers))
            if isinstance(target, dict):
                target[draw(TEXTS)] = draw(VALUES)
            elif isinstance(target, list):
                target.append(draw(VALUES))
            continue
        container, key = draw(st.sampled_from(places))
        if op == "drop":
            del container[key]
        else:
            container[key] = draw(NUMBERS if op == "number" else VALUES)
    return doc


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(("config error: ", "data error: "))
    return code


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_on_any_mutated_json_input_exits_cleanly(command, data):
    """Exit 0, 1 or 2; a failure is one line on stderr, never a traceback or a numpy warning."""
    argv, doc = JSON_COMMANDS[command]
    text = json.dumps(data.draw(mutated(doc)))
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "input.json", text)
        assert_clean_exit([*argv, str(path), "--out-dir", str(Path(d) / "out")])


KEY_VALUES = st.one_of(
    NUMBERS.map(repr),
    st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "1_0", "0x10", "1 # c", "= 2"]),
)


@st.composite
def key_lines(draw, sections):
    """Text of `key = value` lines for `sections` ({header or None: its keys}).

    Half the files are complete (each key once per section, in any order,
    with a number that is rarely bad), so that the command runs on them;
    the other half mix keys (some twice, some missing, some unknown), odd
    lines and section headers.
    """
    keys = sorted({key for names in sections.values() for key in names})
    headers = [h for h in sections if h is not None]
    lines = []
    if draw(st.booleans()):
        for header, names in sections.items():
            lines += [header] if header else []
            for key in draw(st.permutations(names)):
                lines.append(f"{key} = {draw(FLOATS.map(repr) if draw(st.integers(0, 9)) else KEY_VALUES)}")
        return "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["odd", "comment"] + (["header"] * 2 if headers else [])))
        if kind == "pair":
            key = draw(st.sampled_from([*keys, "c_x", "E10", " E1", "eps_E0", "eps_E4"]))
            lines.append(f"{key}{draw(st.sampled_from([' = ', '=', ' =  ']))}{draw(KEY_VALUES)}")
        elif kind == "header":
            lines.append(draw(st.sampled_from([*headers, "[v=1, N=2]", "[v=0,N=1]"])))
        else:
            lines.append(draw(st.sampled_from(["", "   ", "# note", "no equals sign", "[v=0]", "= 1"])))
    return "\n".join(lines) + "\n"


COUPLINGS = key_lines({None: ["c_e", "c_p", "c_d", "c_N"]})
KEY_COMMANDS = {
    "zeeman-map": (["zeeman-map", "--demo", "--couplings"], COUPLINGS),
    "zeeman-coeffs": (
        ["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "0", "--upper-mf", "0", "--couplings"],
        COUPLINGS,
    ),
    "spin-structure": (
        ["spin-structure", "--coefficients"],
        key_lines({"[v=0,N=0]": ["E4", "E5"], "[v=1,N=1]": [f"E{k}" for k in range(1, 10)]}),
    ),
}


@pytest.mark.parametrize("command", sorted(KEY_COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_on_any_key_file_exits_cleanly(command, data):
    """Exit 0, 1 or 2; a failure is one line on stderr, never a traceback or a numpy warning."""
    argv, lines = KEY_COMMANDS[command]
    text = data.draw(lines)
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "input.txt", text)
        assert_clean_exit([*argv, str(path), "--out-dir", str(Path(d) / "out")])
