"""Command-line interface: exit codes, payload shapes, determinism."""

import argparse
import collections
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hdspec
from hdspec import bundled, cli, lineshape, metrology
from hdspec.cli import DataFailure, _Floats, _sweep_grid, _write_csv, _write_csv_grid, _write_json, main

SRC = str(Path(hdspec.__file__).resolve().parents[1])

SUBCOMMANDS = (
    "spin-structure",
    "zeeman-map",
    "zeeman-coeffs",
    "extrapolate-b",
    "fit-line",
    "extrapolate-rf",
    "ledger",
    "composite",
    "extract",
    "compare",
    "adev",
    "dfg",
    "carrier",
    "reproduce-paper",
)


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def load_json(tmp_path, stem):
    return json.loads((tmp_path / f"{stem}.json").read_text())


def run_python(*argv):
    """Run a fresh interpreter with this checkout's package on the path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def assert_one_line_error(proc):
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_has_help(name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0


def test_top_level_help():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def parser_with_every_command():
    """Every command's parser with its options, as `hdspec` would be parsed if it filled them all."""
    top = cli._build_parser(None)
    parser = argparse.ArgumentParser(prog=top.prog, description=top.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, shared, add_arguments, handler in cli.COMMANDS:
        cli._fill_command_parser(sub.add_parser(name, help=help_text), shared, add_arguments, handler)
    return parser


def parse_outcome(parse, argv):
    """(namespace, exit code or failure, stdout, stderr) of one parse_args call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        except cli._Failure as exc:  # raised by an option's type check; `main` reports it as a config error
            result = type(exc).__name__, str(exc)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in SUBCOMMANDS)])
def test_help_is_the_text_of_a_parser_with_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == parse_outcome(parser_with_every_command().parse_args, argv)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_flag_of_another_command_is_a_usage_error(name, capsys):
    full = parser_with_every_command()
    commands = full._subparsers._group_actions[0].choices
    own = set(commands[name]._option_string_actions)
    foreign = sorted({flag for p in commands.values() for flag in p._option_string_actions} - own)
    assert foreign
    for flag in foreign:
        argv = [name, *BUNDLED_RUNS[name], flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (2, *capsys.readouterr()) == parse_outcome(full.parse_args, argv)


@pytest.mark.parametrize(
    "argv", [["reproduce-paper", "--out-dir", "."], ["carrier", "--help"], ["extract", "--bogus"], ["bogus"], ["--help"]]
)
def test_main_fills_the_parser_of_the_named_command_only(argv, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with contextlib.suppress(SystemExit):
        main(argv)
    named = argv[0] if argv[0] in SUBCOMMANDS else None
    # the top level and one parser per command, no option-group parents; only the named one has options
    assert [p.prog for p in built] == ["hdspec", *(f"hdspec {name}" for name, *_ in cli.COMMANDS)]
    assert [p.prog for p in built[1:] if p._actions] == ([f"hdspec {named}"] if named else [])


def test_reproduce_paper_looks_up_each_bundled_file_once_but_the_scaling_reference(tmp_path, monkeypatch, capsys):
    names = []
    data_path = bundled.data_path

    def counted(name):
        names.append(name)
        return data_path(name)

    monkeypatch.setattr(bundled, "data_path", counted)
    assert main(["reproduce-paper", "--out-dir", str(tmp_path)]) == 0
    # 11 shipped files and the absent hfs_coefficients.conf; the codata and the penning scaling model
    # each read analysis_reference.txt
    counts = collections.Counter(names)
    assert len(counts) == 12 and counts.pop("analysis_reference.txt") == 2 and set(counts.values()) == {1}


ARGV_TOKENS = st.sampled_from(
    [*SUBCOMMANDS, "bogus", "-", "--", "-1", "-x y", "-h", "--help", "--demo", "--out-dir", ".", "--format", "csv",
     "--input", "--b12", "0.3", "--n1", "3"]
)


@given(argv=st.lists(ARGV_TOKENS, max_size=5))
@example(argv=["composite", "--b12", "spin-structure"])
def test_parsing_matches_a_parser_with_every_command(argv):
    # the command argparse runs is the one `main` fills, whatever the arguments
    lean = cli._build_parser(cli._named_command(argv))
    assert parse_outcome(lean.parse_args, argv) == parse_outcome(parser_with_every_command().parse_args, argv)


# --- exit-code contract -------------------------------------------------------


def test_spin_structure_without_coefficients_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "spin-structure") == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "--demo" in err


def test_missing_input_file_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "extrapolate-b", "--input", str(tmp_path / "absent.csv")) == 2
    assert "config error" in capsys.readouterr().err


def test_unfittable_data_is_data_error(tmp_path, capsys):
    scan = tmp_path / "flat.csv"
    rows = ["detuning_khz,run_id,laser_on,depletion"]
    for i, d in enumerate(x * 0.1 for x in range(-5, 6)):
        rows += [f"{d},on{i},1,0.0", f"{d},off{i},0,0.0"]
    scan.write_text("\n".join(rows) + "\n")
    assert run(tmp_path, "fit-line", "--input", str(scan)) == 1
    assert "data error" in capsys.readouterr().err


def test_nan_flag_is_one_line_config_error(tmp_path):
    proc = run_python("-m", "hdspec.cli", "carrier", "--delta-rho-um", "nan", "--lambda-um", "5.1",
                      "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")


def test_bad_mode_number_is_one_line_config_error(tmp_path):
    proc = run_python("-m", "hdspec.cli", "dfg", "--f-rep-hz", "1e8", "--n1", "-10", "--n2", "1",
                      "--beat1-hz", "0", "--beat2-hz", "0", "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: mode number must be a positive integer")


def test_nan_raw_frequency_is_one_line_error(tmp_path):
    proc = run_python("-m", "hdspec.cli", "ledger", "--raw-khz", "nan", "--raw-u-khz", "0.1",
                      "--out-dir", str(tmp_path))
    assert_one_line_error(proc)


def test_nan_counter_row_is_one_line_error(tmp_path):
    lines = bundled.data_path("demo_counter.csv").read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ",nan"
    log = tmp_path / "counter.csv"
    log.write_text("\n".join(lines) + "\n")
    proc = run_python("-m", "hdspec.cli", "adev", "--input", str(log), "--carrier-hz", "58605052164255.0",
                      "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {log}:4:")
    assert not (tmp_path / "adev.json").exists()


def huge_value_table(tmp_path, header, rows):
    path = tmp_path / f"{header.split(',')[0]}.csv"
    path.write_text(header + "\n" + "".join(f"{row}\n" for row in rows))
    return str(path)


def test_overflowing_fits_are_one_line_data_errors(tmp_path):
    """Finite inputs whose arithmetic overflows float64: no RuntimeWarning, one line naming the overflow."""
    rf = huge_value_table(tmp_path, "amplitude,f_khz,u_khz", ["1e200,1.0,0.1", "2e200,2.0,0.1", "3e200,3.0,0.1"])
    field = huge_value_table(tmp_path, "B_gauss,f_khz,u_khz", ["1e200,1.0,0.1", "2e200,2.0,0.1", "3e200,3.0,0.1"])
    counter = huge_value_table(tmp_path, "t_s,f_hz", [f"{i}.0,{(-1) ** i}e300" for i in range(20)])
    cases = [
        (["extrapolate-rf", "--input", rf, "--nominal-amplitude", "1.0"], "RF extrapolation fit"),
        (["extrapolate-b", "--input", field], "zero-field extrapolation fit"),
        (["adev", "--input", counter], "Allan deviation"),
    ]
    for argv, what in cases:
        proc = run_python("-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, argv
        assert proc.stderr == f"data error: {what} overflows float64 (overflow encountered in square)\n"
        assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


BAD_CSV_CELLS = [
    ("extrapolate-b", "line12_zeeman.csv", "f_khz", "nan"),
    ("extrapolate-b", "line12_zeeman.csv", "B_gauss", "nan"),
    ("extrapolate-b", "line12_zeeman.csv", "u_khz", "inf"),
    ("extrapolate-b", "line12_zeeman.csv", "u_khz", "nan"),
    ("extrapolate-rf --nominal-amplitude 1.0", "line12_rf.csv", "amplitude", "nan"),
    ("extrapolate-rf --nominal-amplitude 1.0", "line12_rf.csv", "f_khz", "inf"),
    ("extrapolate-rf --nominal-amplitude 1.0", "line12_rf.csv", "u_khz", "nan"),
    ("extrapolate-rf --nominal-amplitude 1.0", "line12_rf.csv", "u_khz", "-1"),
    ("fit-line", "line12_depletion.csv", "detuning_khz", "nan"),
    ("fit-line", "line12_depletion.csv", "depletion", "nan"),
    ("fit-line", "line12_depletion.csv", "depletion", "1.5"),
    ("fit-line", "line12_depletion.csv", "laser_on", "2"),
    ("extrapolate-b", "line12_zeeman.csv", "f_khz", "abc"),
    ("extrapolate-rf --nominal-amplitude 1.0", "line12_rf.csv", "amplitude", "abc"),
    ("fit-line", "line12_depletion.csv", "depletion", "abc"),
    ("adev", "demo_counter.csv", "f_hz", "abc"),
]


@pytest.mark.parametrize(
    "command, data, column, value",
    BAD_CSV_CELLS,
    ids=[f"{c}-{v}" if cmd == "extrapolate-b" else f"{cmd.split()[0]}-{c}-{v}" for cmd, _, c, v in BAD_CSV_CELLS],
)
def test_non_finite_field_scan_row_is_one_line_config_error(tmp_path, command, data, column, value):
    """One bad cell in a bundled input CSV (field scan, RF scan, depletion log) is rejected at the read."""
    lines = bundled.data_path(data).read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    cells[header.index(column)] = value
    lines[2] = ",".join(cells)
    edited = tmp_path / data
    edited.write_text("\n".join(lines) + "\n")
    argv = command.split()
    proc = run_python("-m", "hdspec.cli", *argv, "--input", str(edited), "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {edited}:3:")
    if value == "abc":
        assert proc.stderr.strip() == f"config error: {edited}:3: {column} has a bad numeric value 'abc'"
    assert not (tmp_path / f"{argv[0].replace('-', '_')}.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_coefficient_is_one_line_config_error(tmp_path, value):
    lines = bundled.data_path("demo_coefficients.conf").read_text().splitlines()
    assert lines[15] == "E4 = 900000.0"
    lines[15] = f"E4 = {value}"
    edited = tmp_path / "coefficients.conf"
    edited.write_text("\n".join(lines) + "\n")
    proc = run_python("-m", "hdspec.cli", "spin-structure", "--coefficients", str(edited), "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {edited}:16: E4 must be finite")


@pytest.mark.parametrize(
    "command",
    [["zeeman-map", "--demo"], ["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "0", "--upper-mf", "0"]],
    ids=["zeeman-map", "zeeman-coeffs"],
)
def test_non_finite_coupling_is_one_line_config_error(tmp_path, command):
    couplings = tmp_path / "couplings.txt"
    couplings.write_text("c_e = nan\nc_p = -4.2577\nc_d = -0.6536\nc_N = -0.55\n")
    proc = run_python("-m", "hdspec.cli", *command, "--couplings", str(couplings), "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"config error: {couplings}:1: c_e must be finite"
    assert not list(tmp_path.glob("*.json"))


def test_spin_structure_demo_solves_each_hamiltonian_once(tmp_path, eigh_calls):
    assert run(tmp_path, "spin-structure", "--demo") == 0
    # one eigh per F block of two or more levels: F = 1 at N = 0, then F = 0, 1, 2 at N = 1
    assert eigh_calls == [2, 2, 4, 3]


CSV_CELLS = st.one_of(
    st.integers(-10**20, 10**20),
    st.floats(width=64),
    st.floats(width=64).map(np.float64),
    st.integers(-5, 5).map(np.int64),
    st.text(st.sampled_from('ab ,"\r\n\t'), max_size=4),
    st.none(),
    st.booleans(),
)


@settings(max_examples=200)
@given(rows=st.lists(st.lists(CSV_CELLS, max_size=5), max_size=6))
def test_csv_writer_renders_what_csv_writer_renders(rows):
    """Numeric rows by repr and a comma join; every row as csv.writer with repr(float(x)) cells writes it."""
    header = ["a", "b,c", 'd"e']
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row] for row in rows)
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        path = _write_csv(Path(d), "t", header, rows)
        got = path.read_bytes().decode("utf-8")
    assert got == want.getvalue()


NUMBERS = st.one_of(
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, 0.1, -1.5e-308]),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    NUMBERS.map(float).map(np.float64),
    st.text(max_size=6),  # non-ASCII, quotes, backslashes and control characters among them
    st.lists(st.one_of(NUMBERS, st.booleans()), max_size=6),  # bool is an int subclass
    st.lists(st.floats(), max_size=6).map(_Floats),  # NaN and infinities among them
    st.integers(0, 10).flatmap(lambda i: NON_FINITE if i == 0 else st.just(1.0)),
)
JSON_KEYS = st.integers(0, 20).flatmap(lambda i: st.sampled_from([1, 2.5, None, True]) if i == 0 else st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


def json_outcome(write, payload):
    try:
        with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
            return "ok", write(Path(d), "t", payload).read_text(encoding="utf-8")
    except Exception as exc:  # the type and message of a failure must agree as well
        return type(exc).__name__, str(exc)


def stdlib_json(out_dir, stem, payload):
    """The report as `json.dumps` renders it, and its failure: the authority for `_write_json`."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataFailure(f"{stem} report: {exc}") from exc
    path = out_dir / f"{stem}.json"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@settings(max_examples=400)
@given(payload=st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=5))
@example(payload={"a": [], "b": {}, "c": (), "d": [[]], "é\n\"\\": ["\x00\u2028", "\ud800"]})
@example(payload={"n": [1, 2.5, True, -0.0, 5e-324, 1e22, np.float64(0.1)], "t": (1.0, 2)})
@example(payload={"x": [0.5, math.nan], "y": {1: 2}})
@example(payload={"x": {"y": np.float64("nan")}})
def test_json_reports_are_what_json_dumps_writes(payload):
    """Text, or failure type and message, of json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)."""
    assert json_outcome(_write_json, payload) == json_outcome(stdlib_json, payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_report_value_is_one_line_data_error(tmp_path, capsys, value):
    with pytest.raises(ValueError) as stdlib:
        json.dumps([value], sort_keys=True, indent=2, allow_nan=False)
    with mock.patch.object(metrology, "dfg_frequency", return_value=value):
        code = run(tmp_path, "dfg", "--f-rep-hz", "1e8", "--n1", "2", "--n2", "1", "--beat1-hz", "0", "--beat2-hz", "0")
    assert code == 1
    assert capsys.readouterr().err == f"data error: dfg report: {stdlib.value}\n"
    assert not list(tmp_path.iterdir())


FLOAT_CELLS = st.one_of(st.floats(width=64), st.floats(width=64).map(np.float64))


@settings(max_examples=200)
@given(
    leads=st.lists(st.lists(CSV_CELLS, max_size=4), max_size=4),
    xs=st.lists(FLOAT_CELLS, max_size=5),
    data=st.data(),
)
def test_csv_grid_renders_what_write_csv_renders(leads, xs, data):
    columns = [data.draw(st.lists(FLOAT_CELLS, max_size=len(xs) + 1)) for _ in leads]
    header = ["a", "b,c"]
    rows = [[*lead, x, y] for lead, ys in zip(leads, columns) for x, y in zip(xs, ys)]
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        want = _write_csv(Path(d) / "rows", "t", header, rows).read_bytes()
        got = _write_csv_grid(Path(d) / "grid", "t", header, leads, _Floats(xs), list(map(_Floats, columns))).read_bytes()
    assert got == want


NON_FINITE_LIST_FLAGS = [
    (["adev", "--input", str(bundled.data_path("demo_counter.csv")), "--tau-list", "1,inf"], "--tau-list", "1,inf"),
    (["zeeman-map", "--demo", "--b-values", "0,nan"], "--b-values", "0,nan"),
    (
        ["zeeman-coeffs", "--demo", "--transition", "16", "--lower-mf", "2", "--upper-mf", "3", "--b-values", "0,0.1,nan"],
        "--b-values",
        "0,0.1,nan",
    ),
]


@pytest.mark.parametrize("argv, flag, text", NON_FINITE_LIST_FLAGS, ids=["adev", "zeeman-map", "zeeman-coeffs"])
def test_non_finite_list_flag_is_one_line_config_error(tmp_path, capsys, argv, flag, text):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {flag} expects comma-separated finite numbers, got {text!r}\n"
    assert not list(tmp_path.iterdir())


def test_zeeman_map_on_coarse_grid(tmp_path):
    grid = ",".join(str(5 * i) for i in range(41))
    assert run(tmp_path, "zeeman-map", "--demo", "--b-values", grid) == 0
    payload = load_json(tmp_path, "zeeman_map")
    assert len(payload["b_gauss"]) == 41
    assert len(payload["states"]) == 36
    assert all(len(st["energies_khz"]) == 41 for st in payload["states"])


# every subcommand once, on the bundled inputs
BUNDLED_RUNS = {
    "spin-structure": ["--demo"],
    "zeeman-map": ["--demo"],
    "zeeman-coeffs": ["--demo", "--transition", "16", "--lower-mf", "2", "--upper-mf", "3"],
    "extrapolate-b": ["--input", str(bundled.data_path("line12_zeeman.csv"))],
    "fit-line": ["--input", str(bundled.data_path("line12_depletion.csv"))],
    "extrapolate-rf": ["--input", str(bundled.data_path("line12_rf.csv")), "--nominal-amplitude", "1.0"],
    "ledger": ["--raw-khz", "58605013478.33", "--raw-u-khz", "0.15", "--include-negligible"],
    "composite": ["--optimize", "--demo"],
    "extract": [],
    "compare": [],
    "adev": ["--input", str(bundled.data_path("demo_counter.csv")), "--carrier-hz", "58605052164258.0"],
    "dfg": ["--f-rep-hz", "80e6", "--n1", "3521728", "--n2", "2789120", "--beat1-hz", "20e6", "--beat2-hz=-10e6"],
    "carrier": ["--delta-rho-um", "2.0", "--lambda-um", "5.1", "--sweep", "1:12:23"],
    "reproduce-paper": [],
}


FLAG_READERS = {"--constants-profile": ("extract",), "--format": ("spin-structure", "ledger", "extract")}


@pytest.mark.parametrize("flag, value", [("--constants-profile", "penning"), ("--format", "csv")])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_profile_and_format_are_options_only_of_their_readers(tmp_path, capsys, name, flag, value):
    argv = [name, *BUNDLED_RUNS[name], flag, value]
    if name in FLAG_READERS[flag]:
        assert run(tmp_path, *argv) == 0
        return
    with pytest.raises(SystemExit) as exc:  # argparse's usage error, before the command runs
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_extract_takes_the_profile_and_the_csv_format_together(tmp_path):
    assert run(tmp_path, "extract", "--constants-profile", "penning", "--format", "csv") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["extract.json", "extract_components.csv"]
    assert load_json(tmp_path, "extract")["constants_profile"] == "penning"


def test_commands_do_not_load_scipy(tmp_path):
    # numpy is the only runtime dependency
    assert sorted(BUNDLED_RUNS) == sorted(SUBCOMMANDS)
    script = (
        "import sys\n"
        "from hdspec.cli import main\n"
        f"for name, argv in {BUNDLED_RUNS!r}.items():\n"
        f"    assert main([name, *argv, '--out-dir', {str(tmp_path)!r}]) == 0, name\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "adev.json").exists()


ARRAY_FREE_COMMANDS = ("carrier", "dfg", "ledger", "compare")


def test_array_free_commands_and_help_do_not_load_numpy(tmp_path):
    # each command imports only the modules it runs, and these four build no array
    script = (
        "import contextlib, sys\n"
        "import hdspec.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hdspec'))\n"
        f"for name in {ARRAY_FREE_COMMANDS!r}:\n"
        f"    argv = [name, *{BUNDLED_RUNS!r}[name], '--out-dir', {str(tmp_path)!r}]\n"
        "    argv += ['--format', 'csv'] if name == 'ledger' else []\n"
        "    assert hdspec.cli.main(argv) == 0, name\n"
        "for argv in (['--help'], ['ledger', '--help']):\n"
        "    with contextlib.redirect_stdout(sys.stderr):\n"
        "        try:\n"
        "            hdspec.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == str(["hdspec", "hdspec.bundled", "hdspec.cli", "hdspec.quantity"])
    assert lines[-1] == "[]"
    for stem in ("carrier_sweep.csv", "dfg.json", "ledger.csv", "compare.csv"):
        assert (tmp_path / stem).exists(), stem


def test_commands_do_not_load_numpy_ma(tmp_path):
    # numpy.ma costs about 5 ms to import and no command needs it
    script = (
        "import sys\n"
        "from hdspec.cli import main\n"
        f"for argv in ({['reproduce-paper']!r}, {['zeeman-map', '--demo']!r}, {['spin-structure', '--demo']!r}):\n"
        f"    assert main([*argv, '--out-dir', {str(tmp_path)!r}]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


# --- report writer ------------------------------------------------------------


def report_files(out_dir):
    return {p.name: p for p in out_dir.iterdir()}


def test_rerun_replaces_each_report_with_a_new_file(tmp_path, capsys):
    argv = ("spin-structure", "--demo", "--format", "csv")
    assert run(tmp_path, *argv) == 0
    first = {name: (p.read_bytes(), p.stat().st_ino) for name, p in report_files(tmp_path).items()}
    assert sorted(first) == ["spin_structure.csv", "spin_structure.json"]
    capsys.readouterr()
    assert run(tmp_path, *argv) == 0
    assert capsys.readouterr().out.count("wrote ") == 2
    again = report_files(tmp_path)
    assert sorted(again) == sorted(first)  # no temp file left behind
    for name, (data, inode) in first.items():
        assert again[name].read_bytes() == data
        assert again[name].stat().st_ino != inode  # published anew, never truncated in place


def test_failed_report_leaves_the_previous_one(tmp_path, monkeypatch, capsys):
    args = ["dfg", "--f-rep-hz", "80e6", "--n1", "3521728", "--n2", "2789120", "--beat1-hz", "20e6", "--beat2-hz=-10e6"]
    assert run(tmp_path, *args) == 0
    before = (tmp_path / "dfg.json").read_bytes()
    monkeypatch.setattr(metrology, "maser_correct", lambda f, offset: math.nan)
    assert run(tmp_path, *args) == 1
    assert capsys.readouterr().err.startswith("data error: dfg report:")
    assert (tmp_path / "dfg.json").read_bytes() == before
    assert list(report_files(tmp_path)) == ["dfg.json"]


def test_report_mode_bits_match_a_first_time_report(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(first, "compare") == 0
    assert run(again, "compare") == 0
    assert run(again, "compare") == 0
    plain = tmp_path / "plain.json"
    plain.write_text("{}\n", encoding="utf-8")
    for name in ("compare.json", "compare.csv"):
        assert (again / name).stat().st_mode == (first / name).stat().st_mode == plain.stat().st_mode


def test_symlink_at_a_report_path_is_replaced_not_followed(tmp_path):
    target = tmp_path / "elsewhere.json"
    target.write_text("keep\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.json").symlink_to(target)
    assert run(out, "compare") == 0
    assert not (out / "compare.json").is_symlink()
    assert target.read_text(encoding="utf-8") == "keep\n"


def test_out_dir_that_is_a_file_is_one_line_config_error(tmp_path):
    not_a_dir = tmp_path / "reports"
    not_a_dir.write_text("", encoding="utf-8")
    proc = run_python("-m", "hdspec.cli", "compare", "--out-dir", str(not_a_dir))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: cannot write {not_a_dir / 'compare.json'}:")
    assert not_a_dir.read_text(encoding="utf-8") == ""


def test_report_path_that_is_a_directory_is_one_line_config_error(tmp_path):
    (tmp_path / "compare.json").mkdir()
    proc = run_python("-m", "hdspec.cli", "compare", "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: cannot write {tmp_path / 'compare.json'}:")
    assert sorted(report_files(tmp_path)) == ["compare.json"]  # no temp file left behind
    assert (tmp_path / "compare.json").is_dir()


def test_fit_line_spectrum_csv_roundtrips(tmp_path):
    """The spectrum table holds every point of the fitted spectrum; a point without an sem has an empty cell."""
    lines = bundled.data_path("line12_depletion.csv").read_text().splitlines()
    lines += ["0.55,wing_on,1,0.0291", "0.55,wing_off,0,0.0188"]  # one record per class: no sem
    scan = tmp_path / "depletion.csv"
    scan.write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "fit-line", "--input", str(scan)) == 0
    points = lineshape.build_spectrum(lineshape.read_decay_csv(scan))
    with open(tmp_path / "fit_line_spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(points) == load_json(tmp_path, "fit_line")["n_points"]
    for row, pt in zip(rows, points):
        assert float(row["detuning_khz"]) == pt.detuning
        assert float(row["signal"]) == pt.signal
        assert row["sem"] == "" if pt.sem is None else float(row["sem"]) == pt.sem
    assert rows[-1]["detuning_khz"] == "0.55"
    assert rows[-1]["sem"] == ""


def test_adev_csv_roundtrip(tmp_path):
    src = bundled.data_path("demo_counter.csv")
    assert run(tmp_path, "adev", "--input", str(src), "--tau-list", "1,2") == 0
    with open(tmp_path / "adev.csv", newline="") as fh:
        got = [
            (float(r["tau_s"]), float(r["adev"]), float(r["ci_low"]), float(r["ci_high"]))
            for r in csv.DictReader(fh)
        ]
    assert got == metrology.allan_deviation(metrology.read_counter_csv(src), [1.0, 2.0])
    assert [r["adev"] for r in load_json(tmp_path, "adev")["rows"]] == [g[1] for g in got]


def test_successful_command_returns_zero(tmp_path):
    assert run(tmp_path, "composite") == 0


# --- individual commands --------------------------------------------------------


def test_composite_payload(tmp_path):
    assert run(tmp_path, "composite", "--b12", "0.5") == 0
    payload = load_json(tmp_path, "composite")
    assert payload["b12"] == 0.5
    assert payload["value_khz"] == pytest.approx(58605052164.255, abs=1e-3)
    assert payload["u_exp_khz"] == pytest.approx(0.16101, abs=1e-4)
    assert payload["u_spin_khz"] == pytest.approx(0.85, abs=1e-6)
    assert len(payload["profile"]) == 101
    assert payload["splitting"]["agreement_sigma"] < 1.0
    assert (tmp_path / "composite_profile.csv").exists()


def test_composite_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(a, "composite") == 0
    assert run(b, "composite") == 0
    assert (a / "composite.json").read_bytes() == (b / "composite.json").read_bytes()
    assert (
        a / "composite_profile.csv"
    ).read_bytes() == (b / "composite_profile.csv").read_bytes()


def test_spin_structure_demo(tmp_path):
    assert run(tmp_path, "spin-structure", "--demo") == 0
    payload = load_json(tmp_path, "spin_structure")
    assert set(payload["sections"]) == {"v=0,N=0", "v=1,N=1"}
    assert sum(lv["degeneracy"] for lv in payload["sections"]["v=0,N=0"]) == 12
    assert sum(lv["degeneracy"] for lv in payload["sections"]["v=1,N=1"]) == 36
    assert set(payload["transitions"]) == {"12", "16"}
    assert payload["transitions"]["16"]["upper_level"] == [1, 2, 3]


def test_zeeman_coeffs_demo_stretched_transition(tmp_path):
    assert (
        run(
            tmp_path,
            "zeeman-coeffs",
            "--demo",
            "--transition",
            "16",
            "--lower-mf",
            "2",
            "--upper-mf",
            "3",
        )
        == 0
    )
    payload = load_json(tmp_path, "zeeman_coeffs")
    assert payload["linear_khz_per_gauss"] == pytest.approx(-0.55, abs=1e-9)
    # both stretched states are alone in their m_F blocks: exactly linear
    assert payload["quadratic_khz_per_gauss2"] == 0.0
    assert 0.0 <= payload["truncation_khz"] < 1e-9


def test_extrapolate_b_on_bundled_scan(tmp_path):
    src = bundled.data_path("line12_zeeman.csv")
    assert run(tmp_path, "extrapolate-b", "--input", str(src)) == 0
    payload = load_json(tmp_path, "extrapolate_b")
    assert payload["intercept"]["value"] == pytest.approx(58605013478.330, abs=5e-4)
    assert payload["curvature"]["value"] == pytest.approx(-2.9, abs=1e-3)
    assert payload["curvature"]["unit"] == "kHz/G^2"


def test_extrapolate_rf_on_bundled_scan(tmp_path):
    src = bundled.data_path("line12_rf.csv")
    assert (
        run(tmp_path, "extrapolate-rf", "--input", str(src), "--nominal-amplitude", "1.0")
        == 0
    )
    payload = load_json(tmp_path, "extrapolate_rf")
    assert payload["entry"]["correction_khz"] == pytest.approx(-0.30, abs=2e-3)


def test_ledger_with_negligible_rows(tmp_path):
    assert (
        run(
            tmp_path,
            "ledger",
            "--raw-khz",
            "100.0",
            "--raw-u-khz",
            "0.1",
            "--include-negligible",
        )
        == 0
    )
    payload = load_json(tmp_path, "ledger")
    assert payload["corrected"]["value_khz"] == pytest.approx(100.0)
    assert len(payload["entries"]) == 3


def test_extract_reports_both_ratios(tmp_path):
    assert run(tmp_path, "extract") == 0
    payload = load_json(tmp_path, "extract")
    assert payload["mu_over_me"]["value"] == pytest.approx(1223.899228668, abs=1e-6)
    assert payload["mp_over_me"]["value"] == pytest.approx(1836.152673384, abs=1e-6)
    assert set(payload["mu_over_me"]["components"]) == {
        "CODATA",
        "exp",
        "theor_QED",
        "theor_spin",
    }


def test_compare_uses_bundled_table(tmp_path):
    assert run(tmp_path, "compare") == 0
    payload = load_json(tmp_path, "compare")
    assert len(payload["rows"]) >= 3
    ref_rows = [r for r in payload["rows"] if r["pull"] == 0.0]
    assert ref_rows


@pytest.mark.parametrize(
    "entry, index, message",
    [
        ('{"label": "b", "value": 2.0, "u": -7.8e-08}', 1, "u must be > 0"),
        ('{"label": "b", "value": 2.0, "u": 0}', 1, "u must be > 0"),
        ('{"label": "b", "value": 2.0, "u": NaN}', 1, "u must be finite"),
        ('{"label": "b", "value": Infinity, "u": 1.0}', 1, "value must be finite"),
        ('{"label": "b", "value": "nan", "u": 1.0}', 1, "value must be finite"),
    ],
    ids=["negative-u", "zero-u", "nan-u", "inf-value", "nan-text-value"],
)
def test_compare_rejects_a_bad_determination_at_the_read(tmp_path, entry, index, message):
    path = tmp_path / "determinations.json"
    path.write_text('{"determinations": [{"label": "a", "value": 1.0, "u": 0.5}, ' + entry + "]}", encoding="utf-8")
    proc = run_python("-m", "hdspec.cli", "compare", "--input", str(path), "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"config error: {path}: determinations[{index}].{message}"
    assert not list(tmp_path.glob("compare.*"))


def _lines_with(edit):
    doc = json.loads(bundled.data_path("measured_lines.json").read_text(encoding="utf-8"))
    edit(doc)
    return doc


RAW = ["--raw-khz", "58605013478.33", "--raw-u-khz", "0.15"]
RF_ENTRY = {"name": "rf", "correction_khz": 0.1, "uncertainity_khz": 0.02, "basis": "measured-extrapolation"}
MALFORMED_JSON = {
    "split-pair-of-one": (
        ["composite", "--lines"],
        _lines_with(lambda d: d.update(splitting_theory_khz=[1])),
        "splitting_theory_khz must be a list of 2",
    ),
    "f-exp-in-mhz": (
        ["composite", "--lines"],
        _lines_with(lambda d: d["12"]["f_exp"].update(unit="MHz")),
        "12.f_exp.unit must be kHz",
    ),
    "short-level": (
        ["composite", "--lines"],
        _lines_with(lambda d: d["12"].update(lower_level=[1, 2])),
        "12.lower_level must be [1, 2, 2]",
    ),
    "misspelt-key": (["ledger", *RAW, "--entries"], [RF_ENTRY], "[0].uncertainity_khz is not a known key"),
    "entry-of-1": (["ledger", *RAW, "--entries"], [1], "[0] must be an object"),
    "set-to-zero-correction": (
        ["ledger", *RAW, "--entries"],
        [{"name": "z", "correction_khz": 0.1, "basis": "set-to-zero"}],
        "[0].correction_khz must be 0 for a set-to-zero entry",
    ),
    "value-true": (
        ["compare", "--input"],
        {"determinations": [{"label": "a", "value": True, "u": 0.5}]},
        "determinations[0].value must be a number",
    ),
    "empty-object": (["compare", "--input"], {}, "determinations is missing"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_input_is_one_config_error_line(tmp_path, capsys, case):
    """Each of these ended in a traceback, a silently wrong report, a data error or a message without the path
    before the readers checked them."""
    argv, doc, message = MALFORMED_JSON[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([*argv, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_adev_default_taus(tmp_path):
    src = bundled.data_path("demo_counter.csv")
    assert (
        run(tmp_path, "adev", "--input", str(src), "--carrier-hz", "58605052164255.0")
        == 0
    )
    payload = load_json(tmp_path, "adev")
    taus = [row["tau_s"] for row in payload["rows"]]
    assert taus == sorted(taus)
    assert (tmp_path / "adev.csv").exists()


def test_dfg_is_offset_free(tmp_path):
    args = [
        "dfg",
        "--f-rep-hz",
        "80e6",
        "--n1",
        "3521728",
        "--n2",
        "2789120",
        "--beat1-hz",
        "20e6",
        "--beat2-hz=-10e6",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run(a, *args, "--f-ceo-hz", "0.0") == 0
    assert run(b, *args, "--f-ceo-hz", "35e6") == 0
    fa, fb = load_json(a, "dfg"), load_json(b, "dfg")
    assert fa["dfg_hz"] == fb["dfg_hz"]
    assert fa["laser1_hz"] != fb["laser1_hz"]


def test_carrier_point_and_sweep(tmp_path):
    assert (
        run(
            tmp_path,
            "carrier",
            "--delta-rho-um",
            "2.0",
            "--lambda-um",
            "5.1",
            "--sweep",
            "4:16:25",
        )
        == 0
    )
    payload = load_json(tmp_path, "carrier")
    assert payload["strength"] == pytest.approx(0.0149, abs=5e-4)
    assert (tmp_path / "carrier_sweep.csv").exists()


@settings(max_examples=200)
@given(
    ends=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=2, max_size=2, unique=True)
    .map(sorted),
    n=st.integers(2, 5000),
)
@example(ends=[5e-324, 2e-323], n=8)  # the step underflows to 0
@example(ends=[1.0, 12.0], n=23)
def test_sweep_grid_is_numpy_linspace_bit_for_bit(ends, n):
    lo, hi = ends
    with np.errstate(over="ignore"):  # numpy may overflow on the last point before it sets it to hi
        expected = np.linspace(lo, hi, n).tolist()
    assert [x.hex() for x in _sweep_grid(lo, hi, n)] == [x.hex() for x in expected]


def assert_status_follows_checks(rows):
    """Each evaluated row carries finite numeric checks, and its status follows from them alone."""
    for row in rows:
        if row["status"] == "skip":
            continue
        assert row["checks"], row["name"]
        for c in row["checks"]:
            assert all(type(c[k]) is float and math.isfinite(c[k]) for k in ("value", "target", "tol")), c
        ok = all(abs(c["value"] - c["target"]) <= c["tol"] for c in row["checks"])
        assert row["status"] == ("pass" if ok else "fail"), row["name"]


def test_reproduce_paper_passes_with_two_skips(tmp_path, capsys):
    assert run(tmp_path, "reproduce-paper") == 0
    payload = load_json(tmp_path, "reproduce_paper")
    statuses = [row["status"] for row in payload["rows"]]
    assert statuses.count("fail") == 0
    expected_skips = 0 if bundled.load_coefficients() is not None else 2
    assert statuses.count("skip") == expected_skips
    assert statuses.count("pass") == 15 - expected_skips
    assert_status_follows_checks(payload["rows"])
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_reproduce_paper_evaluates_coefficient_anchors(tmp_path, monkeypatch):
    # the demo coefficients are not the evaluated ones, so both anchors run and miss their targets
    monkeypatch.setattr(bundled, "load_coefficients", bundled.load_demo_coefficients)
    assert run(tmp_path, "reproduce-paper") == 1
    rows = load_json(tmp_path, "reproduce_paper")["rows"]
    assert_status_follows_checks(rows)
    assert [r["status"] for r in rows] == ["pass"] * 13 + ["fail"] * 2
    for row in rows[13:]:
        assert row["checks"]
        assert not row["detail"].startswith("error:")
