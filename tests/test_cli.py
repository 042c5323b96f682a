"""Command-line interface: exit codes, payload shapes, determinism."""

import argparse
import ast
import collections
import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import golden
import hdspec
from conftest import run_python
from hdspec import bundled, cli, lineshape, metrology, quantity
from hdspec.cli import DataFailure, _Floats, _sweep_grid, _write_csv, _write_csv_grid, _write_json, main
from hdspec.quantity import Quantity

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
    """The top-level parser with every command's parser filled under it, built here: the oracle of `main`'s parsing."""
    top = cli._build_parser()
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
    "argv",
    [
        ["reproduce-paper", "--out-dir", "."],
        ["carrier", "--help"],
        ["extract", "--bogus"],
        ["bogus"],
        ["--help"],
        ["extract", "--n1", "3"],
        [],
        ["composite", "--opt", "--demo", "--out-dir", "."],
    ],
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
    named = [f"hdspec {argv[0]}"] if argv and argv[0] in SUBCOMMANDS else []
    full_tree = ["hdspec", *(f"hdspec {name}" for name, *_ in cli.COMMANDS)]
    # a well-formed command builds its own parser alone; anything else then builds the full tree, every command filled
    well_formed = argv[:1] in (["reproduce-paper"], ["carrier"], ["composite"])
    assert [p.prog for p in built] == named + ([] if well_formed else full_tree)
    assert all(p._actions for p in built)


def test_reproduce_paper_looks_up_each_bundled_file_once(tmp_path, monkeypatch, capsys):
    names = []
    data_path = bundled.data_path

    def counted(name):
        names.append(name)
        return data_path(name)

    monkeypatch.setattr(bundled, "data_path", counted)
    assert main(["reproduce-paper", "--out-dir", str(tmp_path)]) == 0
    # 11 shipped files and the absent hfs_coefficients.conf; the penning scaling model is the codata one, moved
    counts = collections.Counter(names)
    assert len(counts) == 12 and set(counts.values()) == {1}


ARGV_TOKENS = st.sampled_from(
    [*SUBCOMMANDS, "bogus", "-", "--", "-1", "-x y", "-h", "--help", "--demo", "--out-dir", ".", "--format", "csv",
     "--input", "--b12", "0.3", "--n1", "3"]
)


@given(argv=st.lists(ARGV_TOKENS, max_size=5))
@example(argv=["composite", "--b12", "spin-structure"])
@example(argv=["extract", "--n1", "3"])  # a flag of another command, with its value
@example(argv=["composite", "--opt", "--demo"])  # an abbreviation
@example(argv=["extract", "--", "--demo"])
@example(argv=["bogus", "-h"])
@example(argv=["extract", "--bogus", "-h"])
def test_parsing_matches_a_parser_with_every_command(argv):
    # what `main` parses with, on the command's parser alone or on the full tree, is what the full tree parses
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(parser_with_every_command().parse_args, argv)


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


def test_negative_raw_uncertainty_is_a_config_error_naming_the_flag(tmp_path):
    proc = run_python("-m", "hdspec.cli", "ledger", "--raw-khz", "1", "--raw-u-khz=-1", "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 2
    assert proc.stderr == "config error: --raw-u-khz must be >= 0, got -1.0\n"
    assert not (tmp_path / "ledger.json").exists()


def test_out_of_range_weight_and_maser_offset_are_config_errors_naming_the_flag(tmp_path):
    """Flags outside their range are config errors before any input is read, as for every bad flag."""
    dfg = ["dfg", "--f-rep-hz", "1e8", "--n1", "3", "--n2", "2", "--beat1-hz", "1", "--beat2-hz", "1"]
    cases = [
        (["composite", "--b12", "1.5"], "--b12 must be in [0, 1], got 1.5"),
        (["composite", "--b12=-1e-300", "--demo"], "--b12 must be in [0, 1], got -1e-300"),
        (["composite", "--b12", "1e308", "--optimize", "--demo"], "--b12 must be in [0, 1], got 1e+308"),
        (["extract", "--b12", "1.5"], "--b12 must be in [0, 1], got 1.5"),
        (["extract", "--b12", "1.0000000000000002"], "--b12 must be in [0, 1], got 1.0000000000000002"),
        ([*dfg, "--maser-fractional-offset", "1e-9"], "--maser-fractional-offset must be in (-1e-9, 1e-9), got 1e-09"),
        ([*dfg, "--maser-fractional-offset=-1e308"], "--maser-fractional-offset must be in (-1e-9, 1e-9), got -1e+308"),
    ]
    for argv, message in cases:
        proc = run_python("-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2, argv
        assert proc.stderr == f"config error: {message}\n"
        assert proc.stdout == ""
    assert not (tmp_path / "out").exists()
    # the ends of each range still run
    for argv in (["composite", "--b12", "0"], ["extract", "--b12", "1"], [*dfg, "--maser-fractional-offset", "9.99e-10"]):
        assert run(tmp_path, *argv) == 0, argv


def test_overflowing_level_solve_is_one_line_data_error(tmp_path):
    """E1 = E2 = 1.7e308 at N = 1: H on an F block leaves float64 (the detail is numpy's wording)."""
    demo = bundled.data_path("demo_coefficients.conf").read_text()
    head, section, rest = demo.partition("[v=1,N=1]")
    rest = rest.replace("E1 = 3100.0", "E1 = 1.7e308").replace("E2 = -3.1", "E2 = 1.7e308")
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(head + section + rest)
    proc = run_python("-W", "error::RuntimeWarning", "-m", "hdspec.cli", "spin-structure",
                      "--coefficients", str(coefficients), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("data error: level solve overflows float64 ("), proc.stderr
    assert proc.stderr.endswith(")\n") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def scaled_demo_coefficients(factor: float) -> str:
    """The bundled demo coefficient file with every E_k times `factor`."""
    lines = bundled.data_path("demo_coefficients.conf").read_text().splitlines()
    scaled = [f"{key} = {float(value) * factor!r}" if line.startswith("E") else line
              for line in lines for key, _, value in [line.partition(" = ")]]
    return "\n".join(scaled) + "\n"


def test_spin_structure_of_the_demo_coefficients_x_1e302_is_the_unscaled_report_x_1e302(tmp_path):
    """Every energy of the demo set x 1e302 is finite, and so is each f_spin: exit 0 with the report scaled.

    Labels, F, degeneracies and order are those of the unscaled report.
    Each energy and f_spin is the unscaled one x 1e302 within 8 ulps of
    1e302 x 925000 kHz (the largest |E_k|), and each gamma_k the unscaled
    one within 64 ulps of 1.0.  u_spin is not compared: its E1' term is
    an absolute 0.05 kHz that does not scale.
    """
    factor = 1e302
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(scaled_demo_coefficients(factor))
    reports = []
    for argv, out in ((["--coefficients", str(coefficients)], tmp_path / "scaled"), (["--demo"], tmp_path / "demo")):
        proc = run_python("-W", "error::RuntimeWarning", "-m", "hdspec.cli", "spin-structure", *argv, "--out-dir", str(out))
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        reports.append(json.loads((out / "spin_structure.json").read_text()))
    scaled, demo = reports
    khz = 8 * math.ulp(factor * 925000.0)
    assert scaled["sections"].keys() == demo["sections"].keys()
    for name, levels in demo["sections"].items():
        assert len(scaled["sections"][name]) == len(levels)
        for got, want in zip(scaled["sections"][name], levels):
            assert {k: got[k] for k in ("g1", "g2", "f", "degeneracy")} == {k: want[k] for k in ("g1", "g2", "f", "degeneracy")}
            assert abs(got["energy_khz"] - factor * want["energy_khz"]) <= khz
    assert scaled["transitions"].keys() == demo["transitions"].keys()
    for tid, want in demo["transitions"].items():
        got = scaled["transitions"][tid]
        assert (got["lower_level"], got["upper_level"]) == (want["lower_level"], want["upper_level"])
        assert abs(got["f_spin_khz"] - factor * want["f_spin_khz"]) <= khz
        for side in ("gamma_lower", "gamma_upper"):
            assert got[side].keys() == want[side].keys()
            assert all(abs(got[side][k] - want[side][k]) <= 64 * math.ulp(1.0) for k in want[side])


@pytest.mark.parametrize("exponent", [-30, 30])
def test_spin_structure_of_the_demo_coefficients_x_2_to_the_30_is_the_unscaled_report_scaled_exactly(
    tmp_path, capsys, exponent
):
    """The levels carry no origin and no threshold in kHz, and a power of 2 scales each sum, product, quotient
    and square root of the level solve exactly: labels, F, degeneracies and order are those of the unscaled
    report, each energy and f_spin is the unscaled one x 2^e, and each gamma_k the unscaled one.  u_spin is not
    compared: its E1' term is an absolute 0.05 kHz that does not scale."""
    factor = 2.0 ** exponent
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(scaled_demo_coefficients(factor))
    assert run(tmp_path, "spin-structure", "--coefficients", str(coefficients)) == 0
    assert capsys.readouterr().err == ""
    got = load_json(tmp_path, "spin_structure")
    want = json.loads((golden.REPORTS / "spin_structure.json").read_text())
    for level in (level for levels in want["sections"].values() for level in levels):
        level["energy_khz"] *= factor
    for transition in want["transitions"].values():
        transition["f_spin_khz"] *= factor
    for transition in (*want["transitions"].values(), *got["transitions"].values()):
        del transition["u_spin_khz"]
    assert got == want


@pytest.mark.parametrize("factor", [1.0, 1e302])
def test_spin_structure_prints_each_line_within_a_bounded_width(tmp_path, factor):
    """The bundled coefficients print f_spin and u_spin to 0.01 kHz; x 1e302 prints them to 7 digits, not 300."""
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(scaled_demo_coefficients(factor))
    proc = run_python("-m", "hdspec.cli", "spin-structure", "--coefficients", str(coefficients), "--out-dir", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    transitions = json.loads((tmp_path / "spin_structure.json").read_text())["transitions"]
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"wrote {tmp_path / 'spin_structure.json'}"
    assert len(lines) == len(transitions) + 1
    for line, (tid, t) in zip(lines, transitions.items()):
        assert len(line) < 120, line
        f_spin, u_spin = re.fullmatch(rf"line {tid}: f_spin = (\S+) kHz, u_spin = (\S+) kHz", line).groups()
        if factor == 1.0:
            assert (f_spin, u_spin) == (f"{t['f_spin_khz']:.2f}", f"{t['u_spin_khz']:.2f}")
        else:
            assert (f_spin, u_spin) == (f"{t['f_spin_khz']:.6e}", f"{t['u_spin_khz']:.6e}")


def test_values_from_1e15_on_print_each_line_within_a_bounded_width(tmp_path):
    """A value or an uncertainty near the top of float64 prints in exponent form, not as a 300-digit number."""
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(scaled_demo_coefficients(1e300))
    depletion = str(bundled.data_path("line12_depletion.csv"))
    determinations = tmp_path / "determinations.json"
    doc = json.loads(bundled.data_path("determinations_mp_over_me.json").read_text())
    doc["determinations"][1]["value"] = 1e300
    determinations.write_text(json.dumps(doc))
    lines = tmp_path / "lines.json"
    doc = json.loads(bundled.data_path("measured_lines.json").read_text())
    doc["12"]["f_exp"]["value"], doc["16"]["f_exp"]["value"] = -1e300, 1e300
    lines.write_text(json.dumps(doc))
    wide_scan = tmp_path / "depletion.csv"
    header, *rows = Path(depletion).read_text().splitlines()
    scaled = [f"{float(d) * 1e50!r},{rest}" for d, _, rest in (r.partition(",") for r in rows)]  # every detuning x 1e50
    wide_scan.write_text("\n".join([header, *scaled]))
    cases = [
        (["composite", "--coefficients", str(coefficients)], "composite: 5.860505e+10(1.6e-01)_exp(6.1e+299)_theor_spin kHz"),
        (["ledger", "--raw-khz", "1e300", "--raw-u-khz", "0.15"], "corrected: 1.000000e+300(1.5e-01)_exp kHz"),
        (["fit-line", "--input", depletion, "--absolute-offset-khz", "1e300"], "line frequency = 1.000000e+300(9.8e-02)_exp kHz"),
        (["compare", "--input", str(determinations)], f"{'Penning-trap masses':32s} 1.000000e+300 +- 7.8e-08  pull +1.282051e+307"),
        (["carrier", "--delta-rho-um", "1e300", "--lambda-um", "5"], "S(5 um) = 0.0000  (lambda_c = 6.283185e+300 um)"),
        (["composite", "--lines", str(lines)], "splitting: 2.000000e+300 kHz (theory 41293.81 kHz, 3.668027e+300 sigma)"),
        (["fit-line", "--input", str(wide_scan)], "center = +3.564655e+48 kHz, fwhm = 1.964477e+49 kHz, amplitude = 0.3516"),
    ]
    for argv, text in cases:
        proc = run_python("-W", "error::RuntimeWarning", "-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert any(line.startswith(text) for line in proc.stdout.splitlines()), proc.stdout
        for line in proc.stdout.splitlines():
            assert len(line) < 120, line


def test_spin_frequency_that_leaves_float64_is_one_line_data_error(tmp_path):
    """Finite level energies of opposite sign near the top of float64: E_upper - E_lower is not finite."""
    n1_zeros = "".join(f"E{k} = 0.0\n" for k in (1, 2, 3, 6, 7, 8, 9))
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(
        "[v=0,N=0]\nE4 = 1.7e308\nE5 = 1.2e308\n\n[v=1,N=1]\n" + n1_zeros + "E4 = -1.7e308\nE5 = -1.2e308\n"
    )
    out = tmp_path / "out"
    proc = run_python("-W", "error::RuntimeWarning", "-m", "hdspec.cli", "spin-structure",
                      "--coefficients", str(coefficients), "--out-dir", str(out))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "data error: spin frequency overflows float64 (f_spin = -inf)\n"
    assert not out.exists()


def coefficient_sections() -> list[str]:
    """The demo file's two sections and three more (N = 0, 2 and 3, one with an eps override), each as its text."""
    demo = bundled.load_demo_coefficients()

    def section(v, n_rot, base, factor, extra=""):
        return f"[v={v},N={n_rot}]\n" + "".join(f"E{k} = {e * factor!r}\n" for k, e in base.values.items()) + extra

    return [
        section(0, 0, demo[(0, 0)], 1.0),
        section(1, 1, demo[(1, 1)], 1.0),
        section(2, 0, demo[(0, 0)], 0.97),
        section(1, 2, demo[(1, 1)], 1.05, "eps_E4 = 2e-6\n"),
        section(0, 3, demo[(1, 1)], -0.9),
    ]


def coefficient_reports(sections: list[str]) -> dict[str, bytes]:
    """Every report file of `spin-structure --format csv` and `composite --optimize` on the sections, in that order."""
    out = {}
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        coefficients = Path(d) / "coefficients.conf"
        coefficients.write_text("\n".join(sections))
        for argv in (["spin-structure", "--format", "csv"], ["composite", "--optimize"]):
            assert main([*argv, "--coefficients", str(coefficients), "--out-dir", str(Path(d) / argv[0])]) == 0
        for path in sorted(Path(d).glob("*/*")):
            out[f"{path.parent.name}/{path.name}"] = path.read_bytes()
    return out


SECTIONS = coefficient_sections()


@pytest.fixture(scope="module")
def in_file_order():
    return coefficient_reports(SECTIONS)


@given(st.permutations(range(len(SECTIONS))))
def test_permuting_the_sections_of_a_coefficient_file_leaves_every_report_byte_identical(in_file_order, order):
    assert coefficient_reports([SECTIONS[i] for i in order]) == in_file_order


def test_overflowing_spin_theory_uncertainty_is_one_line_data_error_before_any_output(tmp_path):
    """The demo coefficients with eps_E4 = 1e308 on [v=1,N=1]: the error model overflows on both lines."""
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(bundled.data_path("demo_coefficients.conf").read_text() + "eps_E4 = 1e308\n")
    cases = [
        (["composite"], "u_spin = inf"),  # the weight profile, on Python floats
        (["composite", "--optimize"], "u_spin = inf"),
        (["spin-structure"], "u_spin = inf"),  # one transition at weight 1
    ]
    for argv, detail in cases:
        proc = run_python("-m", "hdspec.cli", *argv, "--coefficients", str(coefficients), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, argv
        assert proc.stderr == f"data error: spin-theory uncertainty overflows float64 ({detail})\n"
        assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_overflowing_extraction_uncertainty_is_one_line_data_error_before_any_output(tmp_path):
    """The demo coefficients x 1e300: the composite is finite, but the sum of squares of each mass ratio's uncertainties is not."""
    coefficients = tmp_path / "coefficients.conf"
    coefficients.write_text(scaled_demo_coefficients(1e300))
    proc = run_python("-m", "hdspec.cli", "extract", "--coefficients", str(coefficients), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == "data error: mass-ratio extraction overflows float64 (mu_over_me total uncertainty = inf)\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [["--lambda-um", "5.1"], ["--sweep", "1:12:23"]])
def test_carrier_spread_is_checked_before_lambda_c_is_computed(tmp_path, extra):
    """A spread that is not positive is a config error; one whose lambda_c leaves float64 a data error, point or sweep."""
    for spread, code, message in (
        ("0", 2, "config error: --delta-rho-um must be positive, got 0.0"),
        ("-2", 2, "config error: --delta-rho-um must be positive, got -2.0"),
        ("1e308", 1, "data error: critical wavelength overflows float64 (2 pi delta_rho = inf)"),
    ):
        proc = run_python("-m", "hdspec.cli", "carrier", "--delta-rho-um", spread, *extra, "--out-dir", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr, proc.stdout) == (code, message + "\n", "")
    assert not (tmp_path / "out").exists()


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
    loose, tight = tmp_path / "loose.csv", tmp_path / "tight.csv"
    loose.write_text("B_gauss,f_khz,u_khz\n0.2,1.0,1e200\n0.4,2.0,0.1\n0.6,3.0,0.1\n")
    tight.write_text("amplitude,f_khz,u_khz\n1.0,1.0,1e-200\n2.0,2.0,0.1\n3.0,3.0,0.1\n")
    loose, tight = str(loose), str(tight)
    cases = [
        (["extrapolate-rf", "--input", rf, "--nominal-amplitude", "1.0"], "RF extrapolation fit overflows float64 (A^2 = inf)"),
        (["extrapolate-rf", "--input", tight, "--nominal-amplitude", "1.0"],
         "RF extrapolation fit overflows float64 (float division by zero)"),  # u^2 underflows to 0
        (["extrapolate-rf", "--input", tight, "--nominal-amplitude", "1e200"], "RF extrapolation fit overflows float64 (A^2 = inf)"),
        (["extrapolate-b", "--input", field], "zero-field extrapolation fit overflows float64 (B^2 = inf)"),
        (["extrapolate-b", "--input", loose], "zero-field extrapolation fit overflows float64 (u^2 = inf)"),
        (["adev", "--input", counter], "Allan deviation overflows float64 (overflow encountered in square)"),
    ]
    for argv, message in cases:
        proc = run_python("-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, argv
        assert proc.stderr == f"data error: {message}\n"
        assert proc.stdout == ""
    assert not (tmp_path / "out").exists()
    # the bundled depletion scan with every detuning scaled: the fit overflows (x 1e200) or divides 0 by 0 (x 1e-300);
    # a fresh process, because LAPACK would write its complaint to fd 1, past sys.stdout
    header, *rows = bundled.data_path("line12_depletion.csv").read_text().splitlines()
    column = header.split(",").index("detuning_khz")
    for factor in (1e200, 1e-300):
        scaled = [row.split(",") for row in rows]
        for cells in scaled:
            cells[column] = repr(float(cells[column]) * factor)
        scan = tmp_path / f"scan{factor:g}.csv"
        scan.write_text("\n".join([header, *map(",".join, scaled)]) + "\n")
        out = tmp_path / f"fit{factor:g}"
        proc = run_python("-m", "hdspec.cli", "fit-line", "--input", str(scan), "--out-dir", str(out))
        assert proc.returncode == 1, factor
        # numpy words the detail by version ("scalar power", "double_scalars"): the step is what is pinned
        assert proc.stderr.startswith("data error: Lorentzian fit overflows float64 ("), proc.stderr
        assert proc.stderr.endswith(")\n") and proc.stderr.count("\n") == 1, proc.stderr
        # the spectrum is published before the fit, as for every fit failure
        assert proc.stdout == f"wrote {out / 'fit_line_spectrum.csv'}\n"
        assert sorted(p.name for p in out.iterdir()) == ["fit_line_spectrum.csv"]


def test_overflowing_ledger_dfg_and_carrier_are_one_line_data_errors_naming_the_step(tmp_path):
    """Finite flags whose arithmetic overflows float64: one data error naming the step, and no report written."""
    entries = tmp_path / "entries.json"
    entries.write_text(json.dumps([{"name": "x", "correction_khz": 1e308, "uncertainty_khz": 0.1,
                                    "basis": "measured-extrapolation"}]))
    dfg = ["dfg", "--n1", "3521728", "--n2", "2789120", "--beat1-hz", "20e6", "--beat2-hz=-10e6"]
    determinations = tmp_path / "determinations.json"
    determinations.write_text(json.dumps({"reference": "a", "determinations": [
        {"label": "a", "value": -1.7e308, "u": 1e-300}, {"label": "b", "value": 1.7e308, "u": 1}]}))
    cases = [
        (["ledger", "--raw-khz", "1", "--raw-u-khz", "1e308"],
         "systematic-shift ledger overflows float64 (exp uncertainty = inf)"),
        (["ledger", "--raw-khz", "1e308", "--raw-u-khz", "1", "--entries", str(entries), "--format", "csv"],
         "systematic-shift ledger overflows float64 (corrected value = inf)"),
        ([*dfg, "--f-rep-hz", "1e308"], "laser 1 frequency overflows float64 (f1 = inf)"),
        (["dfg", "--f-rep-hz", "1", "--n1", "2", "--n2", "1", "--beat1-hz", "1e308", "--beat2-hz=-1e308"],
         "difference frequency overflows float64 (f0 = inf)"),  # each laser is finite
        (["carrier", "--delta-rho-um", "1e308", "--lambda-um", "5.1", "--sweep", "1:12:23"],
         "critical wavelength overflows float64 (2 pi delta_rho = inf)"),
        (["dfg", "--f-rep-hz", "1e6", "--n1", "2", "--n2", "1", "--beat1-hz", "9e307", "--beat2-hz", "8.976931345e307",
          "--beat-sign2", "-1", "--maser-fractional-offset=-9.99e-10"],
         "maser correction overflows float64 (corrected f = inf)"),  # the difference frequency is finite
        (["compare", "--input", str(determinations)], "comparison pull overflows float64 (pull of 'b' = inf)"),
    ]
    for argv, message in cases:
        proc = run_python("-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1, argv
        assert proc.stderr == f"data error: {message}\n"
        assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_ledger_entries_whose_running_total_leaves_float64_give_their_finite_sum(tmp_path, capsys):
    entries = tmp_path / "entries.json"
    entries.write_text(json.dumps([
        {"name": name, "correction_khz": c, "uncertainty_khz": 0.0, "basis": "measured-extrapolation"}
        for name, c in (("a", 1e308), ("b", 1e308), ("c", -1e308))
    ]))
    assert run(tmp_path, "ledger", "--raw-khz", "1", "--raw-u-khz", "0", "--entries", str(entries)) == 0
    assert load_json(tmp_path, "ledger")["corrected"]["value_khz"] == 1e308


def test_adev_carrier_that_no_sample_is_near_is_a_config_error(tmp_path):
    """Samples at or beyond a factor 2 of the carrier (|y| >= 1) would give deviations that round to 0."""
    log = bundled.data_path("demo_counter.csv")
    for carrier in ("1e308", "1e-300", "1e13"):
        proc = run_python("-m", "hdspec.cli", "adev", "--input", str(log), "--carrier-hz", carrier,
                          "--out-dir", str(tmp_path))
        assert_one_line_error(proc)
        assert proc.returncode == 2, carrier
        assert proc.stderr.startswith(f"config error: {log}: f_hz "), proc.stderr
        assert f"--carrier-hz {float(carrier)!r}" in proc.stderr
        assert not (tmp_path / "adev.json").exists()


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


def test_coupling_whose_zeeman_coefficients_overflow_is_one_line_data_error_and_still_maps(tmp_path):
    """c_e = 1e308 is finite, but the second-order Zeeman terms of the 0 -> 0 component leave float64 on Python
    floats: one data error before any report.  Over the default grid the sublevels of the same couplings stay finite."""
    couplings = tmp_path / "couplings.txt"
    couplings.write_text("c_e = 1e308\nc_p = -4.2577\nc_d = -0.6536\nc_N = -0.55\n")
    coeffs = ["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "0", "--upper-mf", "0"]
    proc = run_python("-m", "hdspec.cli", *coeffs, "--couplings", str(couplings), "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 1
    assert proc.stderr.startswith("data error: Zeeman coefficient solve overflows float64 ("), proc.stderr
    assert not list(tmp_path.glob("*.json"))
    proc = run_python("-m", "hdspec.cli", "zeeman-map", "--demo", "--couplings", str(couplings), "--out-dir", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    energies = [e for st in load_json(tmp_path, "zeeman_map")["states"] for e in st["energies_khz"]]
    assert len(energies) == 36 * 5 and all(map(math.isfinite, energies))


@pytest.mark.parametrize(
    "command, what",
    [
        (["zeeman-map", "--demo"], "Zeeman map"),
        (["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "0", "--upper-mf", "0"], "Zeeman coefficient solve"),
    ],
    ids=["zeeman-map", "zeeman-coeffs"],
)
def test_field_whose_zeeman_energy_overflows_is_one_line_data_error(tmp_path, command, what):
    """B = 1e306 G is finite, but B W leaves float64: checked before the solve, and worded as numpy words it."""
    proc = run_python("-m", "hdspec.cli", *command, "--b-values", "0,1e306", "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.stderr == f"data error: {what} overflows float64 (overflow encountered in multiply)\n"
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("n", [2, 101], ids=["short-grid", "long-grid"])
def test_a_sublevel_energy_beyond_float64_is_one_line_data_error_before_any_output(tmp_path, n):
    """diag(E) + B W is finite at 1.28e305 G, its largest eigenvalues are not: no line on stdout, no report.

    2 points take Python floats, 101 are past the N = 1 work bound (69 points) and take the stacked eigvalsh."""
    grid = ",".join(repr(1.28e305 * i / (n - 1)) for i in range(n))
    proc = run_python("-m", "hdspec.cli", "zeeman-map", "--demo", "--b-values", grid, "--out-dir", str(tmp_path))
    assert_one_line_error(proc)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("data error: Zeeman map overflows float64 (")
    assert not list(tmp_path.iterdir())


def test_spin_structure_demo_solves_each_hamiltonian_once(tmp_path, eigen_solves):
    assert run(tmp_path, "spin-structure", "--demo") == 0
    # one solve per F block, of as many levels as it holds: F = 0, 1, 2 at N = 0, then F = 0, 1, 2, 3 at N = 1
    assert eigen_solves == [1, 2, 1, 2, 4, 3, 1]


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
    """Every row as csv.writer with repr(float(x)) cells writes it."""
    header = ["a", "b,c", 'd"e']
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row] for row in rows)
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        path = _write_csv(Path(d), "t", header, rows)
        got = path.read_bytes().decode("utf-8")
    assert got == want.getvalue()


NUMBER_CELLS = st.one_of(
    st.integers(-2**80, 2**80),
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, sys.float_info.max, -sys.float_info.max, 2**63, -2**63 - 1, 2**64]),
)


@settings(max_examples=200)
@given(rows=st.lists(st.lists(NUMBER_CELLS, max_size=5), max_size=6))
def test_csv_lines_write_a_number_row_as_its_reprs_joined(rows):
    """Each row of Python ints and floats is the bytes `",".join(map(repr, row))` and CR LF, through csv.writer."""
    assert list(cli._csv_lines(rows)) == [",".join(map(repr, row)) + "\r\n" for row in rows]


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
    with mock.patch.object(metrology, "maser_correct", return_value=value):
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


@pytest.mark.parametrize(
    "argv, flag",
    [(argv[:-1], flag) for argv, flag, _ in NON_FINITE_LIST_FLAGS],
    ids=["adev", "zeeman-map", "zeeman-coeffs"],
)
def test_empty_list_flag_is_one_line_config_error(tmp_path, capsys, argv, flag):
    # an empty list is not the default grid
    assert run(tmp_path, *argv, "") == 2
    assert capsys.readouterr().err == f"config error: {flag} is empty\n"
    assert not list(tmp_path.iterdir())


ZEEMAN_COEFFS_12 = ["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "0", "--upper-mf", "0"]
COUNTER = str(bundled.data_path("demo_counter.csv"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeeman-map", "--demo", "--b-values", "0.2,0.1"], "b_values must be strictly ascending"),
        (["zeeman-map", "--demo", "--b-values=-0.1,0.1"], "b_values must be non-negative"),
        ([*ZEEMAN_COEFFS_12, "--b-values", "0,0.2,0.1"], "b_values must be strictly ascending"),
        ([*ZEEMAN_COEFFS_12, "--b-values", "0.1,0.2"], "transition_truncation needs B = 0 in the grid to reference the shift"),
        (["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "5", "--upper-mf", "0"],
         "no Zeeman state with label (1, 2, 2, 5)"),
        (["zeeman-coeffs", "--demo", "--transition", "16", "--lower-mf", "2", "--upper-mf", "4"],
         "no Zeeman state with label (1, 2, 3, 4)"),
        (["adev", "--input", COUNTER, "--tau-list", "1,1.5"], "tau = 1.5 s is not an integer multiple of tau0 = 1.0 s"),
        (["adev", "--input", COUNTER, "--tau-list", "400"],
         "tau = 400.0 s rejected: fewer than 2 averaging bins in 400 samples"),
        # a flag fault outranks a lambda_c beyond float64
        (["carrier", "--delta-rho-um", "1e308", "--lambda-um=-1"], "--lambda-um must be positive, got -1.0"),
        (["carrier", "--delta-rho-um", "1e308", "--sweep", "1:12:1"],
         "--sweep needs finite 0 < MIN < MAX and COUNT >= 2, got '1:12:1'"),
    ],
)
def test_flag_that_the_computation_would_refuse_is_a_config_error_before_it_starts(tmp_path, capsys, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["spin-structure"], ["zeeman-map"], ["zeeman-coeffs", "--transition", "16", "--lower-mf", "2", "--upper-mf", "3"],
     ["composite"]],
    ids=lambda argv: argv[0],
)
def test_coefficient_file_without_a_section_is_one_line_config_error(tmp_path, capsys, argv):
    # the shipped template parses to no section: an empty report, not a spin structure
    template = bundled.data_path("hfs_coefficients_template.conf")
    assert run(tmp_path, *argv, "--coefficients", str(template)) == 2
    assert capsys.readouterr().err == f"config error: {template}: no [v=..,N=..] section with coefficients\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sweep", ["1:inf:3", "1:nan:3", "-inf:12:3"])
def test_non_finite_sweep_is_one_line_config_error(tmp_path, capsys, sweep):
    assert run(tmp_path, "carrier", "--delta-rho-um", "2.0", f"--sweep={sweep}") == 2
    assert capsys.readouterr().err == f"config error: --sweep needs finite 0 < MIN < MAX and COUNT >= 2, got {sweep!r}\n"
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


# values at the edges of float64, and integers beyond it, for every flag that takes a number
EDGE_FLOATS = ("0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308")
EDGE_INTS = ("0", "1", "-1", "-7", str(2 ** 1023), str(2 ** 1024), str(-(2 ** 1024)))
# the text flags that hold numbers, each value written into it in these ways
NUMBER_TEXT_FLAGS = {"--b-values": ("{}", "0,{}"), "--tau-list": ("{}",), "--sweep": ("{}:12:3", "1:{}:3"),
                     "--level": ("{},1", "1,{}")}


def numeric_flag_texts() -> dict[str, dict[str, tuple[str, ...]]]:
    """{command: {flag: texts}} of every flag that takes a number.

    Float flags take `EDGE_FLOATS`, int flags `EDGE_INTS` (a non-integer
    is argparse's usage error), and the text flags of `NUMBER_TEXT_FLAGS`
    each value in each of their forms.  The sign flags take only -1 or 1
    (argparse's choices) and are left out.
    """
    commands = parser_with_every_command()._subparsers._group_actions[0].choices
    out: dict = {}
    for name, parser in commands.items():
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in NUMBER_TEXT_FLAGS:
                values = EDGE_INTS if flag == "--level" else EDGE_FLOATS
                texts = tuple(form.format(v) for form in NUMBER_TEXT_FLAGS[flag] for v in values)
            elif action.type is cli._finite_float or action.type is int and action.choices is None:
                texts = EDGE_FLOATS if action.type is cli._finite_float else EDGE_INTS
            else:
                continue
            out.setdefault(name, {})[flag] = texts
    return out


NUMERIC_FLAGS = numeric_flag_texts()
FLAG_RUNS = {**BUNDLED_RUNS, "composite": ["--demo"]}  # --optimize would leave --b12 unread


def test_every_numeric_flag_is_fuzzed():
    assert sorted(NUMERIC_FLAGS) == sorted(set(SUBCOMMANDS) - {"spin-structure", "extrapolate-b", "compare", "reproduce-paper"})
    assert sorted(NUMERIC_FLAGS["dfg"]) == [
        "--beat1-hz", "--beat2-hz", "--f-ceo-hz", "--f-rep-hz", "--maser-fractional-offset", "--n1", "--n2",
    ]


def with_flags(argv: list[str], values: dict[str, str]) -> list[str]:
    """`argv` with each flag of `values` set to its text, as `--flag=text` (a text may start with '-')."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg in values:
            skip = True  # and its value
        elif arg.partition("=")[0] not in values:
            out.append(arg)
    return out + [f"{flag}={text}" for flag, text in values.items()]


@pytest.mark.parametrize("name", sorted(NUMERIC_FLAGS))
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_numeric_flags_at_the_edges_of_float64_exit_cleanly(name, capfd, data):
    """Exit 0, 1 or 2; a failure is one line on stderr; no traceback, RuntimeWarning or LAPACK line, also at fd level."""
    flags = NUMERIC_FLAGS[name]
    picked = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True))
    values = {flag: data.draw(st.sampled_from(flags[flag]), label=flag) for flag in picked}
    capfd.readouterr()
    with tempfile.TemporaryDirectory() as d:
        code = main([name, *with_flags(FLAG_RUNS[name], values), "--out-dir", d])
        if code == 0:
            golden.assert_complete_reports(d)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2)
    assert "Warning" not in out + err and "On entry to" not in out
    if code:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith(("config error: ", "data error: ")), err
    else:
        assert err == ""


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


# the commands that build no array on the bundled inputs, and the hdspec modules each loads
# beyond those of `import hdspec.cli` (hdspec, hdspec.bundled, hdspec.cli, hdspec.quantity)
ARRAY_FREE_COMMANDS = {
    # the F-block level solve and the weight profile on Python floats
    "spin-structure": ["hdspec.angular", "hdspec.coefficients"],
    # and the m_F blocks of the default field grid, field by field
    "zeeman-map": ["hdspec.angular", "hdspec.coefficients", "hdspec.zeeman"],
    "zeeman-coeffs": ["hdspec.angular", "hdspec.coefficients", "hdspec.zeeman"],
    "composite": ["hdspec.angular", "hdspec.coefficients", "hdspec.composite"],
    "carrier": ["hdspec.carrier"],
    "dfg": ["hdspec.metrology"],
    "ledger": ["hdspec.systematics"],
    "compare": ["hdspec.constants"],
    "extract": ["hdspec.coefficients", "hdspec.composite", "hdspec.constants"],
    "extrapolate-b": ["hdspec.systematics"],
    "extrapolate-rf": ["hdspec.systematics"],
    "fit-line": ["hdspec.lineshape"],
    "adev": ["hdspec.metrology"],
    # while hfs_coefficients.conf ships as a template only: its two rows, which import angular and zeeman, are skipped
    "reproduce-paper": ["hdspec.carrier", "hdspec.coefficients", "hdspec.composite", "hdspec.constants",
                        "hdspec.lineshape", "hdspec.systematics"],
}
CSV_FORMAT_COMMANDS = ("ledger", "extract")


def test_array_free_commands_and_help_do_not_load_numpy(tmp_path):
    # each command imports only the modules it runs, and these build no array
    script = (
        "import contextlib, sys\n"
        "import hdspec.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hdspec'))\n"
        f"for name in {list(ARRAY_FREE_COMMANDS)!r}:\n"
        f"    argv = [name, *{BUNDLED_RUNS!r}[name], '--out-dir', {str(tmp_path)!r}]\n"
        f"    argv += ['--format', 'csv'] if name in {CSV_FORMAT_COMMANDS!r} else []\n"
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
    for stem in ("spin_structure.json", "zeeman_map.csv", "zeeman_coeffs.json", "composite_profile.csv", "carrier_sweep.csv", "dfg.json", "ledger.csv", "compare.csv", "extract_components.csv",
                 "extrapolate_b.json", "extrapolate_rf.json", "fit_line_spectrum.csv", "adev.csv",
                 "reproduce_paper.json"):
        assert (tmp_path / stem).exists(), stem


@pytest.mark.parametrize("name", ARRAY_FREE_COMMANDS)
def test_array_free_command_loads_only_its_modules(tmp_path, name):
    """In a fresh interpreter: no numpy, and of hdspec only the modules the command runs."""
    argv = [name, *BUNDLED_RUNS[name], "--out-dir", str(tmp_path)]
    argv += ["--format", "csv"] if name in CSV_FORMAT_COMMANDS else []
    script = (
        "import contextlib, io, sys\n"
        "from hdspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('hdspec', 'numpy')))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.strip().splitlines()
    assert code == "0"
    assert modules == str(sorted(["hdspec", "hdspec.bundled", "hdspec.cli", "hdspec.quantity", *ARRAY_FREE_COMMANDS[name]]))


def test_exact_zeeman_coefficients_of_the_reproduce_paper_pairs_load_no_numpy():
    """In a fresh interpreter: `transition_coeffs` on the four pairs the reproduce-paper anchors take, with the demo sets."""
    script = (
        "import sys\n"
        "from hdspec import bundled, zeeman\n"
        "sets, couplings = bundled.load_demo_coefficients(), bundled.load_couplings()\n"
        "for tid, lower_mf, upper_mf in (('12', 0, 0), ('16', 0, 0), ('16', 2, 3), ('16', -2, -3)):\n"
        "    lo, up = bundled.TRANSITION_LEVELS[tid]\n"
        "    print(zeeman.transition_coeffs((sets[(0, 0)], (*lo, lower_mf)), (sets[(1, 1)], (*up, upper_mf)), couplings))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    *models, numpy_modules = proc.stdout.strip().splitlines()
    assert len(models) == 4 and models[2] == "TransitionShiftModel(linear=-0.55, quadratic=0.0)"
    assert numpy_modules == "[]"


def large_copy(tmp_path, name):
    """The bundled table `name`, its data rows repeated to at least the counter log's numpy minimum."""
    header, *rows = bundled.data_path(name).read_text(encoding="utf-8").splitlines(keepends=True)
    body = "".join(rows)
    path = tmp_path / name
    path.write_text(header + body * -(-metrology._NUMPY_MIN_BYTES // len(body)), encoding="utf-8")
    return path


def large_counter_log(tmp_path):
    """A counter log of at least the numpy minimum: read on numpy, with the numpy kernels."""
    log = tmp_path / "counter.csv"
    log.write_text("t_s,f_hz\n" + "".join(f"{i},{1e6 + i % 7}\n" for i in range(metrology._NUMPY_MIN_BYTES // 10)))
    assert log.stat().st_size > metrology._NUMPY_MIN_BYTES
    return log


def test_table_commands_load_no_numpy_at_any_input_size_and_adev_takes_its_numpy_kernel(tmp_path):
    """In a fresh interpreter: fit-line, extrapolate-b and extrapolate-rf on inputs of 512 KiB or more load no numpy.

    adev on a counter log of that size then reads and analyses it on numpy.
    """
    decay, field, rf = (large_copy(tmp_path, n) for n in ("line12_depletion.csv", "line12_zeeman.csv", "line12_rf.csv"))
    runs = [
        ["fit-line", "--input", str(decay)],
        ["extrapolate-b", "--input", str(field)],
        ["extrapolate-rf", "--input", str(rf), "--nominal-amplitude", "1.0"],
    ]
    adev = ["adev", "--input", str(large_counter_log(tmp_path))]
    script = (
        "import contextlib, io, sys\n"
        "from hdspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {runs!r}:\n"
        f"        assert main([*argv, '--out-dir', {str(tmp_path)!r}]) == 0, argv\n"
        "    print('numpy' in sys.modules, file=sys.stderr)\n"
        f"    assert main([*{adev!r}, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "    print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["False", "True"]
    assert all(p.stat().st_size >= metrology._NUMPY_MIN_BYTES for p in (decay, field, rf))


def test_commands_do_not_load_numpy_ma(tmp_path):
    # numpy.ma costs about 5 ms to import and no command needs it
    log = large_counter_log(tmp_path)  # read whole-column, on numpy, by a fresh interpreter
    adev = ["adev", "--input", str(log)]
    script = (
        "import sys\n"
        "from hdspec.cli import main\n"
        f"for argv in ({['reproduce-paper']!r}, {['zeeman-map', '--demo']!r}, {['spin-structure', '--demo']!r}, {adev!r}):\n"
        f"    assert main([*argv, '--out-dir', {str(tmp_path)!r}]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


# stdlib modules that no hdspec module needs: `dataclasses` pulls in the next four; `fractions` pulls in `decimal`
UNNEEDED_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal")


def imported_top_level_modules():
    """The top-level name of every module an src/hdspec file imports, anywhere in the file; relative imports aside."""
    names = set()
    for path in Path(hdspec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - {"__future__"}


def test_no_module_imports_dataclasses():
    names = imported_top_level_modules()
    assert "numpy" in names and "json" in names  # the walk sees imports, local ones too
    assert "dataclasses" not in names


@pytest.fixture(scope="module")
def bare_interpreter_modules():
    """Of UNNEEDED_STDLIB, those a fresh interpreter loads for the other stdlib modules hdspec imports, then numpy."""
    stdlib = sorted(imported_top_level_modules() - {"numpy", *UNNEEDED_STDLIB})
    script = (
        f"import sys, {', '.join(stdlib)}\n"
        f"print([m for m in {UNNEEDED_STDLIB!r} if m in sys.modules])\n"
        "import numpy\n"
        f"print([m for m in {UNNEEDED_STDLIB!r} if m in sys.modules])\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    without_numpy, with_numpy = proc.stdout.strip().splitlines()
    return {False: set(ast.literal_eval(without_numpy)), True: set(ast.literal_eval(with_numpy))}


@pytest.mark.parametrize("name", [*SUBCOMMANDS, "--help"])
def test_commands_start_without_dataclasses(tmp_path, name, bare_interpreter_modules):
    """In a fresh interpreter: no `dataclasses`, `fractions` or `decimal` after any command, nor the rest without numpy.

    A module that a bare interpreter loads for the same stdlib modules (and numpy, where the command loaded it) is
    not held against the command.
    """
    argv = ["--help"] if name == "--help" else [name, *BUNDLED_RUNS[name], "--out-dir", str(tmp_path)]
    script = (
        "import contextlib, io, sys\n"
        "from hdspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code)\n"
        "print('numpy' in sys.modules)\n"
        f"print([m for m in {UNNEEDED_STDLIB!r} if m in sys.modules])\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, loaded = proc.stdout.strip().splitlines()
    assert code == "0"
    numpy_loaded = numpy_loaded == "True"
    assert numpy_loaded == (name not in ARRAY_FREE_COMMANDS and name != "--help")
    unexpected = set(ast.literal_eval(loaded)) - bare_interpreter_modules[numpy_loaded]
    assert not unexpected & {"dataclasses", "fractions", "decimal"}
    if not numpy_loaded:
        assert not unexpected


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


@pytest.mark.parametrize("b12", ["0.5", "0.37", "0", "1"])
def test_tableless_composite_profile_is_the_weighted_sum_of_the_line_uncertainties(tmp_path, b12):
    # no coefficient file is bundled, so the spin-theory model is the one term (u12, u16): b u12 + (1 - b) u16
    lines = json.loads(bundled.data_path("measured_lines.json").read_text())
    u12, u16 = (lines[tid]["f_spin"]["components"]["theor_spin"] for tid in ("12", "16"))
    assert run(tmp_path, "composite", "--b12", b12) == 0
    payload = load_json(tmp_path, "composite")
    assert [b for b, _ in payload["profile"]] == [round(0.01 * i, 2) for i in range(101)]
    for b, u in payload["profile"]:
        assert u == b * u12 + (1.0 - b) * u16
    assert payload["u_spin_khz"] == dict(payload["profile"])[float(b12)]


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
    assert payload["corrected"]["value_khz"] == 100.0  # the negligible rows correct by 0.0
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
    "repeated-entry-name": (
        ["ledger", *RAW, "--entries"],
        [{"name": "x", "basis": "measured-extrapolation"}, {"name": "x", "basis": "theoretical-bound"}],
        "[1].name: duplicate ledger entry name 'x'",
    ),
    "entry-named-as-a-negligible-one": (
        ["ledger", *RAW, "--include-negligible", "--entries"],
        [{"name": "black-body radiation", "basis": "set-to-zero"}],
        "[0].name: duplicate ledger entry name 'black-body radiation'",
    ),
    "value-true": (
        ["compare", "--input"],
        {"determinations": [{"label": "a", "value": True, "u": 0.5}]},
        "determinations[0].value must be a number",
    ),
    "empty-object": (["compare", "--input"], {}, "determinations is missing"),
    "unknown-reference": (
        ["compare", "--input"],
        {"reference": "nosuch", "determinations": [{"label": "a", "value": 1.0, "u": 0.5}]},
        "reference 'nosuch' is not among the determinations",
    ),
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


@pytest.mark.parametrize("n", [3, 5])
def test_adev_default_taus_need_four_differences_at_tau0(tmp_path, capsys, n):
    """3 samples give 2 overlapping differences at tau0: a data error and no report, where they wrote empty rows;
    5 give 4, and the default list is tau0 alone.  --tau-list 1 still takes the 3-sample log."""
    rows = bundled.data_path("demo_counter.csv").read_text().splitlines()[: n + 1]
    log = tmp_path / "short.csv"
    log.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    if n == 3:
        assert run(out, "adev", "--input", str(log)) == 1
        assert capsys.readouterr().err == (
            "data error: counter log of 3 samples is too short for the default tau list "
            "(at least 5, for 4 overlapping differences at tau0); give --tau-list\n"
        )
        assert not out.exists()
        assert run(out, "adev", "--input", str(log), "--tau-list", "1") == 0
    else:
        assert run(out, "adev", "--input", str(log)) == 0
    assert [row["tau_s"] for row in load_json(out, "adev")["rows"]] == [1.0]


def numpy_in_fresh_run(argv, out_dir):
    """Run `main(argv)` in a fresh interpreter; whether that loaded numpy, after checking that it exited 0."""
    script = (
        "import contextlib, io, sys\n"
        "from hdspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({[*argv, '--out-dir', str(out_dir)]!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split()
    assert code == "0"
    return loaded == "True"


def test_zeeman_coeffs_on_multi_state_blocks_loads_no_numpy(tmp_path):
    """In a fresh interpreter: line 12 at m_F 0 -> 0, whose blocks hold 4 and 10 states, solved in Python floats."""
    assert not numpy_in_fresh_run(ZEEMAN_COEFFS_12, tmp_path)
    assert load_json(tmp_path, "zeeman_coeffs")["truncation_khz"] > 0.0


@pytest.mark.parametrize("argv", [["composite"], ["extract", "--demo"]], ids=["composite-tableless", "extract-demo"])
def test_composite_without_a_table_and_extract_of_the_demo_sets_load_no_numpy(tmp_path, argv):
    """In a fresh interpreter: the one-term model of the line uncertainties, and the F-block solve of the demo sets."""
    assert not numpy_in_fresh_run(argv, tmp_path)


FINE_FIELDS = ",".join(f"{i / 10000:.4f}" for i in range(2001))  # 0-0.2 G in 0.1 mG steps
COARSE_FIELDS = ",".join(str(5 * i) for i in range(41))  # 0-200 G in 5 G steps


@pytest.mark.parametrize(
    "argv, numpy_loaded",
    [
        # the stretched pair, whose blocks hold one state each: E + B w on any grid, so no solve at all
        (["zeeman-coeffs", "--demo", "--transition", "16", "--lower-mf", "2", "--upper-mf", "3", "--b-values", FINE_FIELDS], False),
        # the N = 1 map over 41 points is within the work bound: Jacobi in Python floats
        (["zeeman-map", "--demo", "--b-values", COARSE_FIELDS], False),
        # line 12 at m_F 0 -> 0 over 2001 points is past it: one stacked eigvalsh per block
        ([*ZEEMAN_COEFFS_12, "--b-values", FINE_FIELDS], True),
    ],
    ids=["stretched-2001", "map-41", "line12-m0-2001"],
)
def test_a_long_zeeman_grid_loads_numpy_only_past_the_work_bound(argv, numpy_loaded, tmp_path):
    assert numpy_in_fresh_run(argv, tmp_path) is numpy_loaded
    if argv[0] == "zeeman-map":
        assert len(load_json(tmp_path, "zeeman_map")["b_gauss"]) == 41
    else:
        assert load_json(tmp_path, "zeeman_coeffs")["truncation_khz"] >= 0.0


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_carrier_sweep_memory_does_not_grow_with_its_count(tmp_path):
    """The sweep is written as its rows are computed: 10^6 rows peak within a few MB of 23 rows.

    Each count runs in a child of a small parent, whose own peak, which a
    child's `ru_maxrss` starts from, stays below the command's.
    """
    script = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    peak_kib = {}
    for count in (23, 10**6):
        out = tmp_path / str(count)
        argv = [sys.executable, "-m", "hdspec.cli", "carrier", "--delta-rho-um", "2.0", "--sweep", f"1:12:{count}"]
        proc = run_python("-c", script, *argv, "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        peak_kib[count] = int(proc.stdout)
        with open(out / "carrier_sweep.csv", "rb") as fh:
            assert sum(1 for _ in fh) == count + 1
    assert peak_kib[10**6] < peak_kib[23] + 4096, peak_kib


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


# --- flags that select a model, a reference or a sign ---------------------------------
# Each report is compared with the library call the flag selects.

DFG = ["--f-rep-hz", "80e6", "--f-ceo-hz", "35e6", "--n1", "3521728", "--n2", "2789120",
       "--beat1-hz", "20e6", "--beat2-hz=-10e6"]


def test_compare_reference_flag_that_names_no_determination_is_a_config_error(tmp_path, capsys):
    assert run(tmp_path, "compare", "--reference", "nosuch") == 2
    assert capsys.readouterr().err == "config error: --reference 'nosuch' is not among the determinations\n"
    assert not list(tmp_path.glob("compare.*"))


def test_compare_reference_flag_sets_the_zero_pull(tmp_path):
    from hdspec import constants

    label = "Penning-trap masses"
    assert run(tmp_path, "compare", "--reference", label) == 0
    payload = load_json(tmp_path, "compare")
    assert payload["reference"] == label
    assert [r["pull"] for r in payload["rows"] if r["label"] == label] == [0.0]
    rows = cli._read_determinations(bundled.data_path("determinations_mp_over_me.json"))[2]
    assert [r["pull"] for r in payload["rows"]] == [r.pull for r in constants.comparison_report(rows, label)]


def test_extrapolate_rf_linear_flag_is_the_linear_model(tmp_path):
    from hdspec import systematics

    src = bundled.data_path("line12_rf.csv")
    assert run(tmp_path, "extrapolate-rf", "--input", str(src), "--nominal-amplitude", "1.0", "--linear") == 0
    payload = load_json(tmp_path, "extrapolate_rf")
    points = systematics.read_amplitude_csv(src)
    f_zero, entry = systematics.rf_extrapolate(points, 1.0, linear_in_amplitude=True)
    assert payload["f_zero"] == f_zero.report()
    assert (payload["entry"]["correction_khz"], payload["entry"]["uncertainty_khz"]) == (
        entry.correction, entry.uncertainty)
    assert f_zero.value != systematics.rf_extrapolate(points, 1.0)[0].value  # the flag changes the model


def test_the_entry_extrapolate_rf_writes_is_the_entry_ledger_reports(tmp_path):
    src = bundled.data_path("line12_rf.csv")
    assert run(tmp_path, "extrapolate-rf", "--input", str(src), "--nominal-amplitude", "1.0") == 0
    entry = load_json(tmp_path, "extrapolate_rf")["entry"]
    entries = tmp_path / "entries.json"
    entries.write_text(json.dumps([entry]))
    assert run(tmp_path, "ledger", "--raw-khz", "58605013478.33", "--raw-u-khz", "0.15", "--entries", str(entries)) == 0
    assert load_json(tmp_path, "ledger")["entries"] == [entry]


def _report_quantities():
    """(argv, report stem, key, the Quantity the library computes for the same input) of each report's Quantity."""
    from hdspec import composite, systematics

    zeeman, rf, depletion = (str(bundled.data_path(f"line12_{s}.csv")) for s in ("zeeman", "rf", "depletion"))
    offset = 58605013478.0
    ext = systematics.extrapolate_to_zero_field(*systematics.read_field_scan_csv(zeeman))
    f_zero, _ = systematics.rf_extrapolate(systematics.read_amplitude_csv(rf), 1.0)
    fit = lineshape.fit_lorentzian(lineshape.build_spectrum(lineshape.read_decay_csv(depletion)))
    lines = bundled.load_measured_lines()
    inp = composite.CompositeInput(*(lines[t][k] for k in ("f_exp", "f_spin") for t in ("12", "16")))
    return [
        (["extrapolate-b", "--input", zeeman], "extrapolate_b", "intercept", ext.intercept),
        (["extrapolate-b", "--input", zeeman], "extrapolate_b", "curvature", ext.curvature),
        (["extrapolate-rf", "--input", rf, "--nominal-amplitude", "1.0"], "extrapolate_rf", "f_zero", f_zero),
        (["fit-line", "--input", depletion, "--absolute-offset-khz", str(offset)], "fit_line", "line",
         lineshape.line_frequency(fit, offset)),
        (["extract"], "extract", "composite", composite.composite_frequency(inp, 0.5)),
    ]


def test_every_quantity_of_a_report_reads_back_as_the_library_computes_it(tmp_path):
    for argv, stem, key, q in _report_quantities():
        assert run(tmp_path, *argv) == 0
        assert Quantity.from_json(json.dumps(load_json(tmp_path, stem)[key])) == q, (stem, key)


def test_fit_line_absolute_offset_gives_the_line_frequency(tmp_path):
    offset = 58605013478.0
    src = bundled.data_path("line12_depletion.csv")
    assert run(tmp_path, "fit-line", "--input", str(src), "--absolute-offset-khz", str(offset)) == 0
    payload = load_json(tmp_path, "fit_line")
    fit = payload["fit"]
    assert payload["line"] == {"value": offset + fit["center_khz"], "unit": "kHz",
                               "components": {"exp": fit["fwhm_khz"] / 2}}


@pytest.mark.parametrize("s1, s2", [(-1, 1), (1, -1), (-1, -1)])
def test_dfg_beat_signs_enter_the_difference_frequency(tmp_path, s1, s2):
    assert run(tmp_path, "dfg", *DFG, "--beat-sign1", str(s1), "--beat-sign2", str(s2)) == 0
    f_rep, n1, n2, b1, b2 = 80e6, 3521728, 2789120, 20e6, -10e6
    assert load_json(tmp_path, "dfg")["dfg_hz"] == (n1 - n2) * f_rep + s1 * b1 - s2 * b2


def test_dfg_negative_ceo_signs_leave_the_difference_frequency(tmp_path):
    plus, minus = tmp_path / "plus", tmp_path / "minus"
    assert run(plus, "dfg", *DFG) == 0
    assert run(minus, "dfg", *DFG, "--ceo-sign1", "-1", "--ceo-sign2", "-1") == 0
    a, b = load_json(plus, "dfg"), load_json(minus, "dfg")
    assert a["dfg_hz"] == b["dfg_hz"]
    assert a["laser1_hz"] != b["laser1_hz"]  # the signs reached the locks


def test_dfg_maser_offset_corrects_the_difference_frequency(tmp_path):
    offset = 3e-13
    assert run(tmp_path, "dfg", *DFG, "--maser-fractional-offset", str(offset)) == 0
    payload = load_json(tmp_path, "dfg")
    assert payload["maser_fractional_offset"] == offset
    assert payload["dfg_corrected_hz"] == payload["dfg_hz"] * (1 - offset)
    assert payload["dfg_corrected_hz"] != payload["dfg_hz"]


# --- one opener: each input file read once ----------------------------------------


@pytest.fixture
def opened(monkeypatch):
    """The path of each input file read, in order: a spy on the one opener, in every module that calls it."""
    paths = []
    opener = quantity.input_bytes

    def spy(path):
        paths.append(Path(path).resolve())
        return opener(path)

    for module in (quantity, metrology):
        monkeypatch.setattr(module, "input_bytes", spy)
    return paths


@pytest.mark.parametrize("name", sorted(BUNDLED_RUNS))
def test_each_command_reads_each_input_file_once(tmp_path, opened, name):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([name, *BUNDLED_RUNS[name], "--out-dir", str(tmp_path)]) == 0
    counts = collections.Counter(opened)
    assert set(counts.values()) <= {1}, counts
    # every file named on the command line is among them
    assert {Path(a).resolve() for a in BUNDLED_RUNS[name] if Path(a).is_file()} <= set(counts)
    assert counts or name in ("ledger", "dfg", "carrier")  # these read no file


def test_adev_reads_a_large_counter_log_once_and_on_numpy(tmp_path, opened):
    log = large_counter_log(tmp_path)
    numpy_read = metrology._loadtxt_columns
    columns = []
    with mock.patch.object(metrology, "_loadtxt_columns", lambda *args: columns.append(numpy_read(*args)) or columns[-1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["adev", "--input", str(log), "--out-dir", str(tmp_path / "out")]) == 0
    assert opened == [log.resolve()]
    assert len(columns) == 1 and columns[0] is not None  # numpy read it
