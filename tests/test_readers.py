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

import golden
from hdspec import bundled, coefficients, constants, lineshape, metrology, systematics, zeeman
from hdspec.cli import main
from hdspec.quantity import FINITE, OPTIONAL_FINITE, OPTIONAL_TEXT, POSITIVE, TEXT, Rule, input_lines, read_json, read_keys


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
    """Exit 0, 1 or 2: a failure is one line on stderr, an exit 0 complete reports in `argv`'s `--out-dir`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(("config error: ", "data error: "))
    else:
        golden.assert_complete_reports(argv[argv.index("--out-dir") + 1])
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
def key_lines(draw, sections, numbers=None):
    """Text of `key = value` lines for `sections` ({header or None: its keys}).

    Half the files are complete (each key once per section, in any order,
    with a number drawn from `numbers[key]` if given, else any finite
    float that is rarely bad), so that the command runs on them; the other
    half mix keys (some twice, some missing, some unknown), odd lines and
    section headers.
    """
    numbers = numbers or {}
    keys = sorted({key for names in sections.values() for key in names})
    headers = [h for h in sections if h is not None]
    lines = []
    if draw(st.booleans()):
        for header, names in sections.items():
            lines += [header] if header else []
            for key in draw(st.permutations(names)):
                if key in numbers:
                    text = repr(draw(numbers[key]))
                else:
                    text = draw(FLOATS.map(repr) if draw(st.integers(0, 9)) else KEY_VALUES)
                lines.append(f"{key} = {text}")
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
# the demo coefficients, so the levels solve, with fractional uncertainties at the edges of float64: the
# spin-theory error model must not overflow in silence
DEMO_SETS = bundled.load_demo_coefficients().values()
COMPOSITE_NUMBERS = {
    **{f"E{k}": st.sampled_from(sorted({c.coefficient(k) for c in DEMO_SETS})) for k in range(1, 10)},
    **{f"eps_E{k}": st.sampled_from([5e-324, 1e-300, 1e-6, 1.0, 1e300, 1e308, 1.7976931348623157e308])
       for k in range(1, 10)},
}
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
    "composite": (
        ["composite", "--optimize", "--coefficients"],
        key_lines(
            {"[v=0,N=0]": ["E4", "E5", "eps_E4", "eps_E5"], "[v=1,N=1]": [f"{e}E{k}" for e in ("", "eps_") for k in range(1, 10)]},
            COMPOSITE_NUMBERS,
        ),
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


# --- one opener: each input file read once, as UTF-8 ------------------------------

LARGE_LOG = "t_s,f_hz\n" + "".join(f"{i},{1e6 + i % 7}\n" for i in range(metrology._NUMPY_MIN_BYTES // 10))


def bundled_text(name):
    return bundled.data_path(name).read_text(encoding="utf-8")


# each reader, and the text of a file that it reads
UTF8_READERS = {
    "counter": (metrology.read_counter_csv, bundled_text("demo_counter.csv")),
    "counter-large": (metrology.read_counter_csv, LARGE_LOG),
    "decay": (lineshape.read_decay_csv, bundled_text("line12_depletion.csv")),
    "field": (systematics.read_field_scan_csv, bundled_text("line12_zeeman.csv")),
    "rf": (systematics.read_amplitude_csv, bundled_text("line12_rf.csv")),
    "contribution": (constants.read_contribution_csv, bundled_text("contributions_case1.csv")),
    "coefficients": (coefficients.read_coefficient_file, bundled_text("demo_coefficients.conf")),
    "couplings": (zeeman.read_couplings_file, bundled_text("zeeman_couplings.txt")),
    "scaling": (constants.read_scaling_file, bundled_text("analysis_reference.txt")),
    "constants": (constants.read_constants_file, bundled_text("constants_codata2018.txt")),
    "json": (bundled.load_measured_lines, bundled_text("measured_lines.json")),
    "entries": (systematics.read_entries, json.dumps(LEDGER)),
}


@pytest.mark.parametrize("where", ["start", "end"])
@pytest.mark.parametrize("name", sorted(UTF8_READERS))
def test_every_reader_names_a_file_that_is_not_utf8(tmp_path, name, where):
    """A 0xff byte anywhere is one ValueError `path: <codec message>`, at its position in the file."""
    read, text = UTF8_READERS[name]
    assert len(LARGE_LOG) >= metrology._NUMPY_MIN_BYTES
    data = text.encode("utf-8")
    at = 0 if where == "start" else len(data)
    path = tmp_path / "input"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"


@pytest.mark.parametrize(
    "argv",
    [
        ["extrapolate-b", "--input"],
        ["zeeman-map", "--demo", "--couplings"],
        ["spin-structure", "--coefficients"],
        ["adev", "--input"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("size", ["small", "large"])
def test_cli_on_a_file_that_is_not_utf8_is_one_config_error_naming_it(tmp_path, argv, size):
    path = tmp_path / "input"
    path.write_bytes(b"a = 1 # \xff\n" + (b"#\n" * metrology._NUMPY_MIN_BYTES if size == "large" else b""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path), "--out-dir", str(tmp_path / "out")])
    assert (code, out.getvalue()) == (2, "")
    message = f"{path}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
    assert err.getvalue() == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_an_n0_section_with_a_rotational_coefficient_names_the_file_and_the_section(tmp_path):
    path = write(tmp_path, "c.conf", "[v=0,N=0]\nE1 = 3\nE4 = 1\nE5 = 2\n")
    with pytest.raises(ValueError) as exc:
        coefficients.read_coefficient_file(path)
    assert str(exc.value) == f"{path}: section [v=0,N=0] N=0 level admits only E4, E5; got nonzero E1"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["spin-structure", "--coefficients", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert err.getvalue() == f"config error: {exc.value}\n"


# --- one line reader: a line ends at CR, LF or CR LF, as open() reads it ---------------

# the characters at which str.splitlines also ends a line, each with one that no reader splits at, and that strip(),
# a regex `\s`, float() and repr() treat as they treat it (the three separators have one such character between them)
INERT = {"\v": "\t", "\f": "\xa0", "\x85": "\u2000", "\u2028": "\u2001", "\u2029": "\u2002",
         "\x1c": "\x1f", "\x1d": "\x1f", "\x1e": "\x1f"}
LINE_ENDS = ["\n", "\r", "\r\n"]
LINE_READERS = ("coefficients", "couplings", "scaling", "constants")


def inert(text):
    """`text` with each character of `INERT`, and its escape in a repr, replaced by its inert one."""
    for char, other in INERT.items():
        text = text.replace(char, other).replace(repr(char)[1:-1], repr(other)[1:-1])
    return text


def fields(value):
    """A reader's result as nested tuples of its fields."""
    if isinstance(value, dict):
        return sorted((key, fields(item)) for key, item in value.items())
    slots = getattr(type(value), "__slots__", ())
    return tuple(fields(getattr(value, name)) for name in slots) if slots else value


def read_outcome(read, path):
    """The fields that `read` gives for the file at `path`, or its message with the path as `<file>`."""
    try:
        return repr(fields(read(path)))
    except ValueError as exc:
        return str(exc).replace(str(path), "<file>")


@st.composite
def mixed_lines(draw, text):
    """The lines of `text`, each ending at CR, LF or CR LF, with `INERT`'s characters in some comments, values and blank lines."""
    out = []
    for line in text.splitlines():
        junk = draw(st.text(alphabet="".join(INERT), min_size=1, max_size=3))
        where = draw(st.sampled_from(["none", "comment", "value", "blank"]))
        if where == "comment":
            line += f" # note{junk}continued"
        elif where == "value":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + junk + line[at:]
        elif where == "blank":
            out.append(junk + draw(st.sampled_from(LINE_ENDS)))
        out.append(line + draw(st.sampled_from(LINE_ENDS)))
    return "".join(out)


@pytest.mark.parametrize("name", LINE_READERS)
@settings(max_examples=60)
@given(data=st.data())
def test_key_and_constants_files_are_read_in_the_lines_open_reads(name, data):
    """The outcome of a file is that of its `open()` lines joined by LF, with no character left that splitlines splits at."""
    read, text = UTF8_READERS[name]
    with tempfile.TemporaryDirectory() as d:
        path, oracle = Path(d) / "input", Path(d) / "oracle" / "input"
        path.write_bytes(data.draw(mixed_lines(text)).encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [inert(line.rstrip("\r\n")) for line in fh]
        oracle.parent.mkdir()
        oracle.write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8"))
        assert inert(read_outcome(read, path)) == read_outcome(read, oracle)


@pytest.mark.parametrize(
    "name, text, want",
    [
        ("coefficients", "[v=0,N=0]\n# note\fcontinued\nE4 = 1\nE5 = 2\n", "[v=0,N=0]\nE4 = 1\nE5 = 2\n"),
        ("couplings", "c_e = 2802.5\v7\nc_p = 1\nc_d = 1\nc_N = 1\n", "<file>:1: c_e has a bad numeric value '2802.5\\x0b7'"),
        ("constants", "# page\fbreak\n" + bundled_text("constants_codata2018.txt"), bundled_text("constants_codata2018.txt")),
        (
            "coefficients",
            "# page\fbreak\x85next\r\n" + bundled_text("demo_coefficients.conf").replace("\n", "\r\n"),
            bundled_text("demo_coefficients.conf"),
        ),
    ],
    ids=["form-feed-comment", "vertical-tab-value", "form-feed-first-line", "crlf-form-feed-and-nel-first-line"],
)
def test_a_line_like_character_is_part_of_its_line(tmp_path, name, text, want):
    """A form feed in a comment is comment text, and a vertical tab in a value is a bad value on its own line."""
    read = UTF8_READERS[name][0]
    if not want.startswith("<file>"):  # the file without its line-like character, which parses
        want = read_outcome(read, write(tmp_path, "plain", want))
        assert not want.startswith("<file>"), want
    assert read_outcome(read, write(tmp_path, "input", text)) == want


@settings(max_examples=200)
@given(st.text(alphabet="".join(INERT) + "".join(LINE_ENDS) + "a#=", max_size=40))
def test_input_lines_are_the_lines_open_reads(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(input_lines(path)) == fh.readlines()


def test_code_defaults_are_the_values_of_the_bundled_files():
    """`ZeemanCouplings()` and the defaults of `ScalingModel` hold exactly what the CLI reads from the bundled files."""
    assert zeeman.ZeemanCouplings().per_slot == bundled.load_couplings().per_slot
    read = bundled.load_scaling_model()
    default = constants.ScalingModel(read.f_ref, read.mu_p_ref)
    assert (default.beta, default.u_qed, default.u_codata_other) == (read.beta, read.u_qed, read.u_codata_other)
