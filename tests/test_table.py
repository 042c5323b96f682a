"""Validated CSV tables: each reader against csv.DictReader, the counter log's numpy read, and the CLI on bad tables."""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import run_python
from hdspec import constants, lineshape, metrology, quantity, systematics
from hdspec.cli import main
from hdspec.quantity import (
    FINITE, FLAG, NON_NEGATIVE, OPTIONAL_NON_NEGATIVE, OPTIONAL_TEXT, POSITIVE, TEXT, UNIT_INTERVAL, UNUSED_TEXT, read_table,
)


def _counter(path):
    s = metrology.read_counter_csv(path)
    return (s.tau0, list(map(float, s.samples)), s.carrier_hz)  # numpy's float64 as Python floats


def _decay(path):
    s = lineshape.read_decay_csv(path)
    return (s.detuning, s.laser_on, s.depletion)


def dict_reader_table(path, columns):
    """`read_table`'s values and faults as `csv.DictReader` gives them, row by row: the oracle of its messages.

    A row's cells are checked required numeric columns first, then optional
    numeric columns, then text columns, each in the order of `columns`; a
    line is the physical line that DictReader's `csv.reader` has read up to.
    """
    order = sorted(columns, key=lambda n: 2 if columns[n].accepts is None else int(columns[n].optional))
    out = {n: [] for n, rule in columns.items() if rule.kept}
    n_rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or ()
            for name, rule in columns.items():
                if name not in header and not (rule.optional and rule.accepts is not None):
                    raise ValueError(f"{path}:1: missing column {name}")
            for row in reader:
                n_rows += 1
                line = reader.reader.line_num
                values = {}
                for name in order:
                    rule, cell = columns[name], row.get(name)  # None: a short row, or an absent optional column
                    if rule.accepts is None:
                        if cell is None:
                            raise ValueError(f"{path}:{line}: {name} {rule.requirement}")
                        values[name] = cell.strip()
                    elif rule.optional and not (cell or "").strip():
                        values[name] = math.nan
                    else:
                        values[name] = quantity.checked_field(cell, rule, path, line, name)
                for n in out:
                    out[n].append(values[n])
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.reader.line_num}: {exc}") from None
    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    return out


@contextlib.contextmanager
def dict_reader_row_path():
    """Every reader on `dict_reader_table`, and no counter log on numpy."""
    with contextlib.ExitStack() as stack:
        for module in (constants, lineshape, systematics):
            stack.enter_context(mock.patch.object(module, "read_table", dict_reader_table))
        # the counter log parses the bytes it read: the oracle reads the file itself
        oracle = lambda path, _text, columns: dict_reader_table(path, columns)  # noqa: E731
        stack.enter_context(mock.patch.object(metrology, "parse_table", oracle))
        stack.enter_context(mock.patch.object(metrology, "_NUMPY_MIN_BYTES", 1 << 62))
        yield


# reader, its columns, and a cell strategy key per column
READERS = {
    "counter": (_counter, {"t_s": "time", "f_hz": "number"}),
    "decay": (_decay, {"detuning_khz": "number", "run_id": "text", "laser_on": "flag", "depletion": "unit"}),
    "field": (systematics.read_field_scan_csv, {"B_gauss": "number", "f_khz": "number", "u_khz": "positive"}),
    "rf": (systematics.read_amplitude_csv, {"amplitude": "number", "f_khz": "number", "u_khz": "non_negative"}),
    "contribution": (
        constants.read_contribution_csv,
        {"name": "text", "value_khz": "number", "u_khz": "non_negative", "bookkeeping": "flag"},
    ),
}

# cells that every reader accepts (the counter log's numpy read refuses some,
# which go to read_table: csv quotes, 1_0 and full-width digits, which
# float() reads and np.loadtxt does not, and non-ASCII or \x1c-\x1f text) ...
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
    is long enough), so that a counter log's numpy read reads them and its
    values are compared; a third hold one fault, so that the fault alone
    decides the message; a third mix faults of every kind.
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
    """Whatever the text, each reader gives what csv.DictReader gives row by row: the same values or the same message.

    A counter log goes to its numpy read wherever that can read it.
    """
    read, columns = READERS[name]
    text = data.draw(table_text(columns))
    # every log is offered to the numpy read
    with tempfile.TemporaryDirectory() as d, mock.patch.object(metrology, "_NUMPY_MIN_BYTES", 0):
        path = write(d, text)
        got = outcome(read, path)
        with dict_reader_row_path():
            want = outcome(read, path)
    assert got == want


CLEAN = {
    "counter": "t_s,f_hz\n0,1.5\n1,-2e-3\n2,7\n",
    "decay": "detuning_khz,run_id,laser_on,depletion\n-0.5,r1,1,0.25\n-0.5, r2 ,0,0\n0.5,r3,1,1\n",
    "field": "B_gauss,f_khz,u_khz\n0.2,58605013478.214,0.15\n0.4,-0.0,1e-300\n",
    "rf": "amplitude,f_khz,u_khz\n0.5,58605013478.105,0.1667\n1.0,1e3,0\n",
    "contribution": "name,value_khz,u_khz,bookkeeping\nalpha^0,1.0,1.3,0\nsize,-17.17,0,1\n",
}
# variants the counter log's numpy read reads itself: line ends, blank lines, padded cells, extra or reordered columns
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
    """Each reader reads the variants as csv.DictReader does; the counter log's numpy read reads them itself."""
    read, _ = READERS[name]
    text = VARIANTS[variant](CLEAN[name])
    path = write(tmp_path, text)
    calls = []
    numpy_read = metrology._loadtxt_columns

    def spy(*args):
        calls.append(numpy_read(*args))
        return calls[-1]

    with mock.patch.object(metrology, "_loadtxt_columns", spy), mock.patch.object(metrology, "_NUMPY_MIN_BYTES", 0):
        got = read(path)
    assert len(calls) == (name == "counter") and None not in calls  # only a counter log, and numpy read it
    with dict_reader_row_path():
        assert repr(read(path)) == repr(got)


REFUSED = {
    "quote": 't_s,f_hz\n0,1\n1,"2"\n',
    "nul": "t_s,f_hz\n0,1\n1,2\x00\n",
    **{f"x{b:x}": f"t_s,f_hz\n0,1\n1,2{chr(b)}\n" for b in range(0x1C, 0x20)},
    "non-ascii": "t_s,f_hz\n0,1\n1,２\n",
    "nan": "t_s,f_hz\n0,1\n1,nan\n",
    "inf": "t_s,f_hz\n0,1\n1,-inf\n",
    "overflow": "t_s,f_hz\n0,1\n1,1e400\n",
    "empty": "",
    "header-only": "t_s,f_hz\n",
    "blank-only": "t_s,f_hz\n\n\n",
}


# a header of any length, up to a second f_hz, the one that counts: numpy reads it
NUMPY_READ = {"long-header": "t_s,f_hz," + "x" * (1 << 17) + ",f_hz\n0,1,0,5\n1,2,0,6\n"}


@pytest.mark.parametrize("name", sorted({**REFUSED, **NUMPY_READ}))
def test_counter_log_numpy_read_leaves_every_other_log_to_read_table(tmp_path, name):
    """A refused byte, a non-finite cell or no data rows: `read_table` decides; a long header is numpy's."""
    path = write(tmp_path, {**REFUSED, **NUMPY_READ}[name])
    with mock.patch.object(metrology, "_NUMPY_MIN_BYTES", 0):
        assert (metrology._loadtxt_columns(path, path.read_bytes()) is None) == (name in REFUSED)
        got = outcome(_counter, path)
    with dict_reader_row_path():
        assert got == outcome(_counter, path)


def test_read_table_returns_arrays_and_stripped_text(tmp_path):
    path = write(tmp_path, "b,a,flag,name,b\n9,1.5,1, x ,2\n9,-0.0,0,y,3\n")
    columns = {"a": FINITE, "b": FINITE, "flag": FLAG, "name": TEXT, "u": OPTIONAL_NON_NEGATIVE}
    cols = read_table(path, columns)
    assert all(type(cols[n]) is list for n in cols)
    assert cols["a"] == [1.5, -0.0] and math.copysign(1.0, cols["a"][1]) == -1.0
    assert cols["b"] == [2.0, 3.0]  # the last of a duplicated name
    assert cols["flag"] == [1.0, 0.0] and cols["name"] == ["x", "y"]
    assert all(map(math.isnan, cols["u"])) and len(cols["u"]) == 2


def test_every_table_reader_gives_its_numbers_as_python_floats_in_lists(tmp_path):
    """`read_table`'s numeric columns are lists of Python floats, and each reader hands on those floats."""

    def floats(values):
        return type(values) is list and all(type(v) is float for v in values)

    cols = read_table(write(tmp_path, CLEAN["rf"]), {"amplitude": FINITE, "f_khz": FINITE, "u_khz": OPTIONAL_NON_NEGATIVE})
    assert list(cols) == ["amplitude", "f_khz", "u_khz"] and all(map(floats, cols.values()))
    scan = lineshape.read_decay_csv(write(tmp_path, CLEAN["decay"]))
    assert all(map(floats, (scan.detuning, scan.laser_on, scan.depletion)))
    field = systematics.read_field_scan_csv(write(tmp_path, CLEAN["field"]))
    assert len(field) == 3 and all(map(floats, field))
    points = systematics.read_amplitude_csv(write(tmp_path, CLEAN["rf"]))
    assert floats([a for a, _ in points]) and floats([q.value for _, q in points])
    assert floats([u for _, q in points for u in q.components.values()])
    rows = constants.read_contribution_csv(write(tmp_path, CLEAN["contribution"])).rows
    assert floats([r.value for r in rows]) and floats([r.uncertainty for r in rows])
    log = write(tmp_path, CLEAN["counter"])
    assert log.stat().st_size < metrology._NUMPY_MIN_BYTES
    assert floats(metrology.read_counter_csv(log).samples)


def test_a_text_column_is_required_even_where_its_rule_is_optional(tmp_path):
    """Only a numeric column may be absent: a text column's cell is checked in every row."""
    for read in (read_table, dict_reader_table):
        with pytest.raises(ValueError, match=r"table\.csv:1: missing column note$"):
            read(write(tmp_path, "a\n1\n"), {"a": FINITE, "note": OPTIONAL_TEXT})


@pytest.mark.parametrize(
    "text, columns, message",
    [
        ("a,b\n1,2\n3,nan\n", {"a": FINITE, "b": FINITE}, "t.csv:3: b must be finite"),
        ("a\n1\n0\n", {"a": POSITIVE}, "t.csv:3: a must be finite and positive"),
        ("a\n1\n-1\n", {"a": NON_NEGATIVE}, "t.csv:3: a must be finite and >= 0"),
        ("a\n1\n1.5\n", {"a": UNIT_INTERVAL}, "t.csv:3: a must be in [0, 1], got 1.5"),
        ("a\n1\n2\n", {"a": FLAG}, "t.csv:3: a must be 0 or 1, got 2.0"),
        ("a,b\n1,x\n2\n", {"a": FINITE, "b": TEXT}, "t.csv:3: b is missing"),
        ("a\n1\n1_0x\n", {"a": FINITE}, "t.csv:3: a has a bad numeric value '1_0x'"),
        ("a,u\n1,\n2,-1\n", {"a": FINITE, "u": OPTIONAL_NON_NEGATIVE}, "t.csv:3: u must be finite and >= 0"),
        # two faults: the first required numeric column in the reader's order is named
        ("a,b\nnan,x\n", {"a": FINITE, "b": POSITIVE}, "t.csv:2: a must be finite"),
        # a row after blank lines is at its own physical line
        ("a,b\n0,1\n\n1,nan\n", {"a": FINITE, "b": FINITE}, "t.csv:4: b must be finite"),
        ("a,b\n\n\n1,2\n3\n", {"a": FINITE, "b": TEXT}, "t.csv:5: b is missing"),
        ("a\n\n\nx\n", {"a": FINITE}, "t.csv:4: a has a bad numeric value 'x'"),
        # two faults: required numeric, then optional numeric, then text columns, whatever the order of `columns`
        ("n,a\nx\n", {"n": TEXT, "a": FINITE}, "t.csv:2: a has a bad numeric value None"),
        ("a,u,n\n1,-1\n", {"n": TEXT, "u": OPTIONAL_NON_NEGATIVE, "a": FINITE}, "t.csv:2: u must be finite and >= 0"),
    ],
)
def test_row_path_names_the_first_fault(tmp_path, text, columns, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_table(path, columns)
    assert str(exc.value).endswith(message)
    assert outcome(lambda p: read_table(p, columns), path) == outcome(lambda p: dict_reader_table(p, columns), path)


BIG = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "text, line",
    [
        (f"{BIG},b\n1,2\n", 1),
        (f"a,b\n{BIG},1\n", 2),
        (f"a,b\n1,2\n{BIG}\n", 3),
        (f"a,b\n1,2\n\n\n{BIG},1\n", 5),
        (f'a,b\n"1\n",3\n\n"{BIG}\n', 5),
    ],
    ids=["header", "first-row", "after-a-row", "after-blank-lines", "after-a-two-line-row"],
)
def test_csv_error_names_the_line_dict_reader_named(tmp_path, text, line):
    """A csv.Error is `path:line: ...` at the physical line csv stopped on, in the header and after blank lines too."""
    path = write(tmp_path, text)
    columns = {"a": FINITE, "b": FINITE}
    with pytest.raises(ValueError, match=rf"table\.csv:{line}: field larger than field limit"):
        read_table(path, columns)
    assert outcome(lambda p: read_table(p, columns), path) == outcome(lambda p: dict_reader_table(p, columns), path)


def test_small_files_are_read_row_by_row(tmp_path):
    """A counter log under `_NUMPY_MIN_BYTES` goes to `read_table`; one row more and numpy reads it."""
    header = "t_s,f_hz\n"
    small = write(tmp_path, header + "1,2\n" * ((metrology._NUMPY_MIN_BYTES - len(header) - 1) // 4))
    assert small.stat().st_size < metrology._NUMPY_MIN_BYTES
    assert metrology._loadtxt_columns(small, small.read_bytes()) is None
    with open(small, "a", encoding="utf-8") as fh:
        fh.write("3,4\n")
    assert metrology._loadtxt_columns(small, small.read_bytes())["f_hz"].tolist()[-1] == 4.0


def test_fast_path_scans_every_chunk_and_needs_the_whole_header_in_the_first(tmp_path):
    # counter logs above the numpy read's minimum, scanned whole as one chunk:
    # a refused byte anywhere and a header of any length lie in it
    columns = {"t_s": FINITE, "f_hz": FINITE}
    n = metrology._NUMPY_MIN_BYTES // 4
    rows = "1,2\n" * n

    def numpy_read(text):
        log = write(tmp_path, text)
        return metrology._loadtxt_columns(log, log.read_bytes())

    assert numpy_read("t_s,f_hz\n" + rows) is not None
    # a quote or a non-ASCII byte at the end of the log
    assert numpy_read("t_s,f_hz\n" + rows + '"3",4\n') is None
    assert numpy_read("t_s,f_hz\n" + rows + "５,4\n") is None
    # a header of 128 KiB, up to a second f_hz, the one that counts
    path = write(tmp_path, "t_s,f_hz," + "x" * (1 << 17) + ",f_hz\n" + "1,2,0,4\n" * (n // 2))
    got, want = metrology._loadtxt_columns(path, path.read_bytes()), read_table(path, columns)
    assert {n: c.tolist() for n, c in got.items()} == want
    assert got["f_hz"].tolist() == [4.0] * (n // 2)


def test_file_size_alone_picks_the_counter_log_numpy_read(tmp_path):
    """In a fresh interpreter: Python floats below `_NUMPY_MIN_BYTES`, numpy from it, whether or not numpy is loaded."""
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    small.write_text("t_s,f_hz\n" + "".join(f"{i},2\n" for i in range(1000)))
    large.write_text("t_s,f_hz\n" + "".join(f"{i},2\n" for i in range(metrology._NUMPY_MIN_BYTES // 4)))
    script = (
        "import sys\n"
        "from hdspec import metrology\n"
        f"print(type(metrology.read_counter_csv({str(small)!r}).samples).__name__, 'numpy' in sys.modules)\n"
        f"print(type(metrology.read_counter_csv({str(large)!r}).samples).__name__, 'numpy' in sys.modules)\n"
        f"print(type(metrology.read_counter_csv({str(small)!r}).samples).__name__)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["list False", "ndarray True", "list"]


def test_an_unused_text_column_is_checked_and_left_out(tmp_path):
    columns = {"a": FINITE, "id": UNUSED_TEXT}
    # wherever the column is, before the read columns or after them
    for text in ("id,a\nx,1\ny,2\n", "a,id\n1,x\n2,\n"):
        cols = read_table(write(tmp_path, text), columns)
        assert list(cols) == ["a"] and cols["a"] == [1.0, 2.0]
    # a short row: the cell is missing
    with pytest.raises(ValueError, match=r"table\.csv:3: id is missing$"):
        read_table(write(tmp_path, "a,id\n1,x\n2\n"), columns)
    with pytest.raises(ValueError, match=r"table\.csv:1: missing column id$"):
        read_table(write(tmp_path, "a\n1\n"), columns)


def test_row_path_accepts_what_float_accepts(tmp_path):
    path = write(tmp_path, "t_s,f_hz\n1_0,１\n" + "1,2\n" * 300)
    with mock.patch.object(metrology, "_NUMPY_MIN_BYTES", 0):
        assert metrology._loadtxt_columns(path, path.read_bytes()) is None
    assert read_table(path, {"t_s": FINITE, "f_hz": FINITE})["t_s"][:2] == [10.0, 1.0]


@pytest.mark.parametrize(
    "text, column", [("a\n1\n", "b"), ("a\n\n", "b"), ("a", "b"), ("", "a")], ids=["rows", "blank", "header", "empty"]
)
def test_missing_column_is_named_whether_or_not_rows_follow(tmp_path, text, column):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=rf"table\.csv:1: missing column {column}$"):
        read_table(path, {"a": FINITE, "b": FINITE, "u": OPTIONAL_NON_NEGATIVE})


def test_a_table_without_data_rows_is_a_fault(tmp_path):
    path = write(tmp_path, "a,b\n\n")
    with pytest.raises(ValueError, match=r"table\.csv: no data rows$"):
        read_table(path, {"a": FINITE, "b": FINITE})


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
        if code == 0:
            golden.assert_complete_reports(Path(d) / "out")
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1
        assert err.getvalue().startswith(("config error: ", "data error: "))
