"""Validated CSV tables: the whole-column fast path against the row path, and the CLI on malformed tables."""

import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec import constants, lineshape, metrology, quantity, systematics, zeeman
from hdspec.cli import main
from hdspec.quantity import FINITE, FLAG, NON_NEGATIVE, OPTIONAL_NON_NEGATIVE, POSITIVE, TEXT, UNIT_INTERVAL, read_table


def _counter(path):
    s = metrology.read_counter_csv(path)
    return (s.tau0, s.samples.tolist(), s.carrier_hz)


def _decay(path):
    s = lineshape.read_decay_csv(path)
    return (s.detuning.tolist(), s.laser_on.tolist(), s.depletion.tolist())


# reader, its columns, and a cell strategy key per column
READERS = {
    "counter": (_counter, {"t_s": "time", "f_hz": "number"}),
    "decay": (_decay, {"detuning_khz": "number", "run_id": "text", "laser_on": "flag", "depletion": "unit"}),
    "field": (zeeman.read_field_scan_csv, {"B_gauss": "number", "f_khz": "number", "u_khz": "positive"}),
    "rf": (systematics.read_amplitude_csv, {"amplitude": "number", "f_khz": "number", "u_khz": "non_negative"}),
    "contribution": (
        constants.read_contribution_csv,
        {"name": "text", "value_khz": "number", "u_khz": "non_negative", "bookkeeping": "flag"},
    ),
}

# cells that every reader accepts (some only on the row path: csv quotes,
# 1_0 and full-width digits, which float() reads and np.loadtxt does not,
# and non-ASCII or \x1c-\x1f text) ...
FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)


def rarely(common, rare):
    return st.integers(0, 15).flatmap(lambda i: rare if i == 0 else common)


PADDED = st.sampled_from(["{}", " {}", "{} ", "\t{}\t", "\x0b{}"])
GOOD = {
    "time": st.sampled_from(["0", "1", "2.0", " 3", "4.0"]),
    "number": rarely(
        st.one_of(
            FLOATS.map(repr),
            st.tuples(PADDED, FLOATS.map("{:.6e}".format)).map(lambda p: p[0].format(p[1])),
            st.sampled_from(["0", "-0.0", "1e-320", "5e-324", "1.7976931348623157e308"]),
        ),
        st.sampled_from(["1_0", "１", '"1.5"']),
    ),
    "positive": st.one_of(FLOATS.filter(lambda x: x > 0).map(repr), st.sampled_from(["5e-324", "0.2 ", "1e308"])),
    "non_negative": st.one_of(FLOATS.filter(lambda x: x >= 0).map(repr), st.sampled_from(["-0.0", "", " ", "5e-324"])),
    "unit": st.one_of(st.floats(0, 1).map(repr), st.sampled_from(["-0.0", "1", " 1", "0.9999999999999999"])),
    "flag": rarely(st.sampled_from(["0", "1", " 1 ", "\t0"]), st.just('"1"')),
    "text": rarely(
        st.sampled_from(["r1", " r2 ", "", "a b", "run#3", "x\ty"]),
        st.sampled_from(["é", '"q"', '"a,b"', '" r ""4"""', "\x1er5", "r\x006"]),
    ),
}
# ... cells just outside a rule ...
BAD = {
    "time": st.sampled_from(["nan", "inf"]),
    "number": st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e400", "-1e400"]),
    "positive": st.sampled_from(["0", "-0.0", "-5e-324", "nan", "inf"]),
    "non_negative": st.sampled_from(["-5e-324", "-1e-300", "nan", "inf"]),
    "unit": st.sampled_from(["1.0000000000000002", "-5e-324", "nan", "inf"]),
    "flag": st.sampled_from(["2", "1.0", "", "01", "-1"]),
    "text": st.sampled_from(['"', '"a"b']),
}
# ... cells that float() rejects and np.loadtxt would read ...
SPLIT = st.sampled_from([" 1\x1c", "\x1d2", "3\x1e", "\x1f4", '"5', '6"'])
# ... and cells that break any numeric column
ODD = st.sampled_from(["", " ", "\t", "1_0x", "\x001", '"1,5"', "#1", "1#", "abc", "0x10", "1e", "+-1", "1 0"])


def bad_cell(kind):
    return st.one_of(BAD[kind], SPLIT, ODD)


@st.composite
def table_text(draw, columns):
    """CSV text for `columns` ({name: cell kind}): a header, then data rows.

    A third of the tables are clean (every cell passes its rule, every row
    is long enough), so that the fast path reads them and its values are
    compared; a third hold one fault, so that the fault alone decides
    between the paths; a third mix faults of every kind.
    """
    mode = draw(st.sampled_from(["clean", "one fault", "wild"]))
    names = list(columns)
    header = draw(st.permutations(names))
    header_changes = ["none", "extra", "duplicate"] + (["pad", "drop", "bom"] if mode == "wild" else [])
    change = draw(st.sampled_from(header_changes))
    if change == "extra":
        header = [*header, "note"]
    elif change == "duplicate":  # the last of a duplicated name wins
        header = [draw(st.sampled_from(names)), *header]
    elif change == "pad":
        i = draw(st.integers(0, len(header) - 1))
        header = [*header[:i], f" {header[i]}", *header[i + 1:]]
    elif change == "drop":
        header = header[1:]
    elif change == "bom":
        header = [f"\ufeff{header[0]}", *header[1:]]
    shapes = ["row"] * 4 + ["long", "blank"] + (["short", "spaces"] if mode == "wild" else [])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(shapes))
        if shape in ("blank", "spaces"):
            rows.append(["" if shape == "blank" else "  "])
            continue
        kinds = [columns.get(name) for name in header]
        cells = [
            "x" if kind is None else draw(GOOD[kind] if mode != "wild" or draw(st.integers(0, 3)) else bad_cell(kind))
            for kind in kinds
        ]
        if shape == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif shape == "long":
            cells += ["7"]
        rows.append(cells)
    if mode == "one fault":
        fault = draw(st.sampled_from(["cell", "cell", "cell", "short", "spaces", "header"]))
        full = [i for i, row in enumerate(rows) if len(row) == len(header)]
        if fault == "header" or not full:
            i = draw(st.integers(0, len(header) - 1))
            header = [*header[:i], draw(st.sampled_from([f" {header[i]}", f"\ufeff{header[i]}", ""])), *header[i + 1:]]
        elif fault == "cell":
            r, c = draw(st.sampled_from(full)), draw(st.integers(0, len(header) - 1))
            kind = columns.get(header[c])
            rows[r][c] = draw(bad_cell(kind) if kind else st.one_of(SPLIT, ODD))
        elif fault == "short":
            r = draw(st.sampled_from(full))
            rows[r] = rows[r][: draw(st.integers(0, len(header) - 1))]
        else:
            rows.insert(draw(st.integers(0, len(rows))), ["  "])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def outcome(read, path):
    try:
        return "ok", repr(read(path))
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def write(directory, text):
    path = Path(directory) / "table.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=300)
@given(data=st.data())
def test_fast_path_and_row_path_agree(name, data):
    """Whatever the text, the reader gives what the row path alone gives: the same values or the same message."""
    read, columns = READERS[name]
    text = data.draw(table_text(columns))
    # every file is read by the fast path where it can be, and scanned in several chunks
    with tempfile.TemporaryDirectory() as d, mock.patch.multiple(quantity, _FAST_MIN_BYTES=0, _SCAN_BYTES=64):
        path = write(d, text)
        got = outcome(read, path)
        with mock.patch.object(quantity, "_read_fast", return_value=None):
            want = outcome(read, path)
    assert got == want


CLEAN = {
    "counter": "t_s,f_hz\n0,1.5\n1,-2e-3\n2,7\n",
    "decay": "detuning_khz,run_id,laser_on,depletion\n-0.5,r1,1,0.25\n-0.5, r2 ,0,0\n0.5,r3,1,1\n",
    "field": "B_gauss,f_khz,u_khz\n0.2,58605013478.214,0.15\n0.4,-0.0,1e-300\n",
    "rf": "amplitude,f_khz,u_khz\n0.5,58605013478.105,0.1667\n1.0,1e3,0\n",
    "contribution": "name,value_khz,u_khz,bookkeeping\nalpha^0,1.0,1.3,0\nsize,-17.17,0,1\n",
}
# variants the fast path reads itself: line ends, blank lines, padded cells, extra or reordered columns
VARIANTS = [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "\r"),
    lambda t: t.replace("\n", "\n\n"),
    lambda t: "{}\n{}".format(*(part.replace(",", " , ") if i else part for i, part in enumerate(t.split("\n", 1)))),
    lambda t: t.rstrip("\n"),
    lambda t: t.replace("\n", ",9\n"),
]


@pytest.mark.parametrize("variant", range(len(VARIANTS)))
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_fast_path_reads_clean_tables_as_the_row_path_does(tmp_path, name, variant):
    read, _ = READERS[name]
    text = VARIANTS[variant](CLEAN[name])
    path = write(tmp_path, text)
    calls = []
    fast = quantity._read_fast

    def spy(*args):
        calls.append(fast(*args))
        return calls[-1]

    with mock.patch.object(quantity, "_read_fast", spy), mock.patch.object(quantity, "_FAST_MIN_BYTES", 0):
        got = read(path)
    assert calls[0] is not None  # the whole-column path read it
    with mock.patch.object(quantity, "_read_fast", return_value=None):
        assert repr(read(path)) == repr(got)


@pytest.mark.parametrize("min_bytes", [0, 1 << 30], ids=["fast", "rows"])
def test_read_table_returns_arrays_and_stripped_text(tmp_path, min_bytes):
    path = write(tmp_path, "b,a,flag,name,b\n9,1.5,1, x ,2\n9,-0.0,0,y,3\n")
    columns = [(("a", "b"), FINITE), ("flag", FLAG), ("name", TEXT), ("u", OPTIONAL_NON_NEGATIVE)]
    with mock.patch.object(quantity, "_FAST_MIN_BYTES", min_bytes):
        assert (quantity._read_fast(path, quantity._steps(columns)) is None) == bool(min_bytes)
        cols = read_table(path, columns)
    assert cols["a"].tolist() == [1.5, -0.0] and math.copysign(1.0, cols["a"][1]) == -1.0
    assert cols["b"].tolist() == [2.0, 3.0]  # the last of a duplicated name
    assert cols["flag"] == ["1", "0"] and cols["name"] == ["x", "y"]
    assert np.isnan(cols["u"]).all() and len(cols["u"]) == 2


@pytest.mark.parametrize(
    "text, columns, message",
    [
        ("a,b\n1,2\n3,nan\n", [(("a", "b"), FINITE)], "t.csv:3: a and b must be finite"),
        ("a\n1\n0\n", [("a", POSITIVE)], "t.csv:3: a must be finite and positive"),
        ("a\n1\n-1\n", [("a", NON_NEGATIVE)], "t.csv:3: a must be finite and >= 0"),
        ("a\n1\n1.5\n", [("a", UNIT_INTERVAL)], "t.csv:3: a must be in [0, 1], got 1.5"),
        ("a\n1\n2\n", [("a", FLAG)], "t.csv:3: a must be 0 or 1, got '2'"),
        ("a,b\n1,x\n2\n", [("a", FINITE), ("b", TEXT)], "t.csv:3: b is missing"),
        ("a\n1\n1_0x\n", [("a", FINITE)], "t.csv:3: a has a bad numeric value '1_0x'"),
        ("a,u\n1,\n2,-1\n", [("a", FINITE), ("u", OPTIONAL_NON_NEGATIVE)], "t.csv:3: u must be finite and >= 0"),
        # required numeric cells are parsed before any rule is checked
        ("a,b\nnan,x\n", [("a", FINITE), ("b", POSITIVE)], "t.csv:2: b has a bad numeric value 'x'"),
    ],
)
def test_row_path_names_the_first_fault(tmp_path, text, columns, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_table(path, columns)
    assert str(exc.value).endswith(message)


def test_small_files_are_read_row_by_row(tmp_path):
    steps = quantity._steps([(("a", "b"), FINITE)])
    small = write(tmp_path, "a,b\n" + "1,2\n" * ((quantity._FAST_MIN_BYTES - 5) // 4))
    assert quantity._read_fast(small, steps) is None
    with open(small, "a", encoding="utf-8") as fh:
        fh.write("3,4\n")
    assert quantity._read_fast(small, steps)["b"].tolist()[-1] == 4.0


def test_fast_path_scans_every_chunk_and_needs_the_whole_header_in_the_first(tmp_path):
    steps = quantity._steps([(("a", "b"), FINITE)])
    rows = "1,2\n" * 400
    with mock.patch.object(quantity, "_SCAN_BYTES", 256):
        assert quantity._read_fast(write(tmp_path, "a,b\n" + rows), steps) is not None
        # a quote or a non-ASCII byte far past the first chunk
        assert quantity._read_fast(write(tmp_path, "a,b\n" + rows + '"3",4\n'), steps) is None
        assert quantity._read_fast(write(tmp_path, "a,b\n" + rows + "５,4\n"), steps) is None
        # a header that fills the first chunk may go on past it: here to a second b, the one that counts
        path = write(tmp_path, "a,b," + "x" * 300 + ",b\n" + "1,2,0,4\n" * 400)
        assert quantity._read_fast(path, steps) is None
        assert read_table(path, [(("a", "b"), FINITE)])["b"].tolist() == [4.0] * 400


def test_row_path_accepts_what_float_accepts(tmp_path):
    path = write(tmp_path, "a,b\n1_0,１\n" + "1,2\n" * 300)
    assert quantity._read_fast(path, quantity._steps([(("a", "b"), FINITE)])) is None
    assert read_table(path, [(("a", "b"), FINITE)])["a"].tolist()[:2] == [10.0, 1.0]


def test_missing_column_raises_key_error_only_when_a_row_needs_it(tmp_path):
    path = write(tmp_path, "a\n1\n")
    with pytest.raises(KeyError, match="'b'"):
        read_table(path, [(("a", "b"), FINITE)])
    path = write(tmp_path, "a\n\n")
    assert read_table(path, [(("a", "b"), FINITE)])["b"].tolist() == []


# --- the CLI on malformed tables ------------------------------------------------

CLI_TABLES = {
    "fit-line": ([], READERS["decay"][1]),
    "adev": ([], READERS["counter"][1]),
    "extrapolate-b": ([], READERS["field"][1]),
    "extrapolate-rf": (["--nominal-amplitude", "1.0"], READERS["rf"][1]),
}


@pytest.mark.parametrize("command", sorted(CLI_TABLES))
@settings(max_examples=60)
@given(data=st.data())
def test_cli_on_any_table_exits_cleanly(command, data):
    """Exit 0, 1 or 2; a failure is one line on stderr, never a traceback or a numpy warning."""
    extra, columns = CLI_TABLES[command]
    text = data.draw(table_text(columns))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = write(d, text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), *extra, "--out-dir", str(Path(d) / "out")])
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1
        assert err.getvalue().startswith(("config error: ", "data error: "))
