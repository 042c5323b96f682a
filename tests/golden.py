"""The committed reports of every command on the bundled inputs, and how a rerun is compared with them.

`runs()` are the benchmark's bundled operations, with `--format csv` for
the three commands that have it, and further runs of one command that
take every option some command has:
- two runs of `zeeman-coeffs` on line 12, whose m_F blocks hold more
  than one state.  At m_F 0 -> 0 (blocks of 4 and 10 states) the run
  pins the second-order sum and the truncation of such blocks; at m_F
  1 -> 1 the linear term is not 0, so it pins the diagonal <J_z> of
  those blocks too;
- `zeeman-map` of the demo file by `--coefficients`, at `--level 0,0`
  with the bundled `--couplings` over a short `--b-values` grid;
- `fit-line --absolute-offset-khz`, the line frequency that
  `lineshape.line_frequency` reports;
- `extrapolate-rf --linear`, `ledger --entries` (`ledger_entries.json`
  here), `composite` without a sensitivity table and at `--b12` with
  `--lines`, `extract --constants-profile penning`, `compare
  --reference`, `adev --tau-list`, and `dfg` with its CEO signs and a
  maser offset.
`tests/reports/` holds what they write; a further run of a command
commits its reports under its `PREFIXES` entry.
`scripts/write_golden_reports.py` rewrites that directory, and
`tests/test_golden_reports.py` reruns each command and compares.

`compare` holds a rerun report to the committed one byte for byte.  No
golden run loads numpy, so no numpy or LAPACK version can move a byte
of them (`tests/test_golden_reports.py` checks that in a fresh
interpreter).  To say where a mismatch is, it reads both files as text
and numbers: it splits the text at every number, so JSON, CSV and the
numbers inside strings are read alike.  A mismatch names the file, the
first differing JSON key path or CSV cell, and the largest absolute and
relative difference of the numbers, or that the text between them
differs.

`assert_complete_reports` checks what a command wrote on an exit 0, on
any input: at least one report, and no empty row list but those of
`EMPTY_ON_PURPOSE`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hdspec import bundled
from hdspec.cli import main

REPORTS = Path(__file__).resolve().parent / "reports"
LEDGER_ENTRIES = Path(__file__).resolve().parent / "ledger_entries.json"

# run name -> what the names of its committed reports start with, for a further run of one command
PREFIXES = {
    "zeeman-coeffs-12": "line12_m0_",
    "zeeman-coeffs-12-m1": "line12_m1_",
    "zeeman-map-level": "level00_",
    "fit-line-absolute": "absolute_",
    "extrapolate-rf-linear": "linear_",
    "ledger-entries": "entries_",
    "composite-tableless": "tableless_",
    "composite-b12": "b12_",
    "extract-penning": "penning_",
    "compare-reference": "reference_",
    "adev-tau-list": "tau_",
    "dfg-signs": "signs_",
}


def runs() -> dict[str, tuple[list[str], list[str]]]:
    """Name -> (argv without --out-dir, the reports it writes) of each command whose reports are committed."""
    data = bundled.data_path
    return {
        "spin-structure": (["spin-structure", "--demo", "--format", "csv"], ["spin_structure.csv", "spin_structure.json"]),
        "zeeman-map": (["zeeman-map", "--demo"], ["zeeman_map.csv", "zeeman_map.json"]),
        "zeeman-map-level": (
            [
                "zeeman-map", "--coefficients", str(data("demo_coefficients.conf")), "--level", "0,0",
                "--couplings", str(data("zeeman_couplings.txt")), "--b-values", "0,0.5,1,2,5",
            ],
            ["level00_zeeman_map.csv", "level00_zeeman_map.json"],
        ),
        "zeeman-coeffs": (
            ["zeeman-coeffs", "--demo", "--transition", "16", "--lower-mf", "2", "--upper-mf", "3"], ["zeeman_coeffs.json"]
        ),
        "zeeman-coeffs-12": (
            ["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "0", "--upper-mf", "0"],
            ["line12_m0_zeeman_coeffs.json"],
        ),
        "zeeman-coeffs-12-m1": (
            ["zeeman-coeffs", "--demo", "--transition", "12", "--lower-mf", "1", "--upper-mf", "1"],
            ["line12_m1_zeeman_coeffs.json"],
        ),
        "extrapolate-b": (["extrapolate-b", "--input", str(data("line12_zeeman.csv"))], ["extrapolate_b.json"]),
        "fit-line": (
            ["fit-line", "--input", str(data("line12_depletion.csv"))], ["fit_line.json", "fit_line_spectrum.csv"]
        ),
        "fit-line-absolute": (
            ["fit-line", "--input", str(data("line12_depletion.csv")), "--absolute-offset-khz", "58605013478.0"],
            ["absolute_fit_line.json", "absolute_fit_line_spectrum.csv"],
        ),
        "extrapolate-rf": (
            ["extrapolate-rf", "--input", str(data("line12_rf.csv")), "--nominal-amplitude", "1.0"], ["extrapolate_rf.json"]
        ),
        "extrapolate-rf-linear": (
            ["extrapolate-rf", "--input", str(data("line12_rf.csv")), "--nominal-amplitude", "1.0", "--linear"],
            ["linear_extrapolate_rf.json"],
        ),
        "ledger": (
            ["ledger", "--raw-khz", "58605013478.33", "--raw-u-khz", "0.15", "--include-negligible", "--format", "csv"],
            ["ledger.csv", "ledger.json"],
        ),
        "ledger-entries": (
            ["ledger", "--raw-khz", "58605013478.33", "--raw-u-khz", "0.15", "--entries", str(LEDGER_ENTRIES), "--format", "csv"],
            ["entries_ledger.csv", "entries_ledger.json"],
        ),
        "composite": (["composite", "--optimize", "--demo"], ["composite.json", "composite_profile.csv"]),
        "composite-tableless": (["composite"], ["tableless_composite.json", "tableless_composite_profile.csv"]),
        "composite-b12": (
            ["composite", "--demo", "--b12", "0.25", "--lines", str(data("measured_lines.json"))],
            ["b12_composite.json", "b12_composite_profile.csv"],
        ),
        "extract": (["extract", "--format", "csv"], ["extract.json", "extract_components.csv"]),
        "extract-penning": (
            ["extract", "--constants-profile", "penning", "--format", "csv"],
            ["penning_extract.json", "penning_extract_components.csv"],
        ),
        "compare": (["compare"], ["compare.csv", "compare.json"]),
        "compare-reference": (
            ["compare", "--reference", "Penning-trap masses"], ["reference_compare.csv", "reference_compare.json"]
        ),
        "adev": (
            ["adev", "--input", str(data("demo_counter.csv")), "--carrier-hz", "58605052164258.0"], ["adev.csv", "adev.json"]
        ),
        "adev-tau-list": (
            ["adev", "--input", str(data("demo_counter.csv")), "--tau-list", "1,3,10,30"], ["tau_adev.csv", "tau_adev.json"]
        ),
        "dfg": (
            [
                "dfg", "--f-rep-hz", "250000000", "--f-ceo-hz", "20000000", "--n1", "1150123", "--n2", "915677",
                "--beat1-hz", "31250000", "--beat2-hz", "27500000", "--beat-sign1", "1", "--beat-sign2", "-1",
            ],
            ["dfg.json"],
        ),
        "dfg-signs": (
            [
                "dfg", "--f-rep-hz", "80e6", "--f-ceo-hz", "35e6", "--n1", "3521728", "--n2", "2789120", "--beat1-hz", "20e6",
                "--beat2-hz=-10e6", "--beat-sign1", "-1", "--ceo-sign1", "-1", "--ceo-sign2", "-1",
                "--maser-fractional-offset", "3e-13",
            ],
            ["signs_dfg.json"],
        ),
        "carrier": (
            ["carrier", "--delta-rho-um", "2.0", "--lambda-um", repr(4.0 * math.pi), "--sweep", "1:12:23"],
            ["carrier.json", "carrier_sweep.csv"],
        ),
        "reproduce-paper": (["reproduce-paper"], ["reproduce_paper.json"]),
    }


def write_reports(out_dir: Path, names=None) -> None:
    """Run the commands `names` (default: all) of `runs()` in this process, writing their reports into `out_dir`.

    Each runs in a directory of its own, whose reports then move into
    `out_dir` under their committed names.
    """
    table = runs()
    for name in table if names is None else names:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:  # on the file system of `out_dir`, for the moves
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*table[name][0], "--out-dir", tmp])
            if code != 0:
                raise RuntimeError(f"{name} exited with {code}")
            for report in Path(tmp).iterdir():
                report.replace(out_dir / (PREFIXES.get(name, "") + report.name))


# split() of a text gives its text and its numbers alternating: text at even, numbers at odd indices
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def _differences(want: list[str], got: list[str]) -> tuple[float, float]:
    """The largest absolute and relative difference of the numbers at matching places."""
    abs_max = rel_max = 0.0
    for a, b in zip(want[1::2], got[1::2]):
        x, y = float(a), float(b)
        d = abs(x - y)
        if d:
            abs_max = max(abs_max, d)
            rel_max = max(rel_max, d / max(abs(x), abs(y)))
    return abs_max, rel_max


def _first_json_difference(want, got, where: str = "") -> str | None:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            path = f"{where}.{key}" if where else key
            if key not in want or key not in got:
                return f"{path} ({'added' if key not in want else 'removed'})"
            found = _first_json_difference(want[key], got[key], path)
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            found = _first_json_difference(a, b, f"{where}[{i}]")
            if found:
                return found
        return f"{where} (length {len(want)} -> {len(got)})" if len(want) != len(got) else None
    if repr(want) != repr(got):  # tells 1 from 1.0 and -0.0 from 0.0
        return f"{where or 'the document'}: {want!r} -> {got!r}"
    return None


def _first_csv_difference(want: str, got: str) -> str | None:
    a, b = list(csv.reader(io.StringIO(want))), list(csv.reader(io.StringIO(got)))
    header = a[0] if a else []
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        for j in range(max(len(row_a), len(row_b))):
            x = row_a[j] if j < len(row_a) else None
            y = row_b[j] if j < len(row_b) else None
            if x != y:
                column = header[j] if j < len(header) else f"column {j + 1}"
                return f"row {i + 1}, {column}: {x!r} -> {y!r}"
    return f"rows {len(a)} -> {len(b)}" if len(a) != len(b) else None


def compare(name: str, want: str, got: str) -> tuple[str | None, float, float]:
    """(fault or None, largest absolute, largest relative number difference) of a rerun report against the committed one."""
    if want == got:
        return None, 0.0, 0.0
    tokens_want, tokens_got = _NUMBER.split(want), _NUMBER.split(got)
    same_text = tokens_want[0::2] == tokens_got[0::2]
    abs_max, rel_max = _differences(tokens_want, tokens_got) if same_text else (math.inf, math.inf)
    if name.endswith(".json"):
        where = _first_json_difference(json.loads(want), json.loads(got)) or "text only"
    else:
        where = _first_csv_difference(want, got) or "text only"
    numbers = f"largest difference {abs_max:.3g} absolute, {rel_max:.3g} relative" if same_text else "text differs"
    return f"{name}: first difference at {where}; {numbers}", abs_max, rel_max


def compare_files(want_dir: Path, got_dir: Path, names) -> tuple[list[str], float, float]:
    """(faults, largest absolute, largest relative difference) over the reports `names` of two directories."""
    faults, abs_max, rel_max = [], 0.0, 0.0
    for name in names:
        want, got = ((d / name).read_bytes().decode("utf-8") for d in (want_dir, got_dir))  # line ends as written
        fault, a, r = compare(name, want, got)
        if fault:
            faults.append(fault)
        if math.isfinite(a):
            abs_max, rel_max = max(abs_max, a), max(rel_max, r)
    return faults, abs_max, rel_max


# the row lists that an exit 0 may leave empty, as `empty_row_lists` names them, and why
EMPTY_ON_PURPOSE = {
    "ledger.json:entries": "a ledger of no entries (`ledger --entries` on `[]`) is the raw value with 0 entries",
    "ledger.csv": "the same ledger as CSV: its header alone",
    "reproduce_paper.json:rows[].checks": "a skipped `reproduce-paper` row has no checks",
}


def empty_row_lists(out_dir) -> set[str]:
    """The row lists of the reports in `out_dir` that hold no row.

    `<file>` names a CSV report with its header alone, `<file>:<key
    path>` an empty list in a JSON report, `[]` standing for the items of
    a list.
    """
    empty = set()
    for path in Path(out_dir).iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv" and len(text.splitlines()) < 2:
            empty.add(path.name)
        elif path.suffix == ".json":
            empty.update(f"{path.name}:{where}" for where in _empty_lists(json.loads(text), ""))
    return empty


def _empty_lists(value, where: str):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _empty_lists(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        if not value:
            yield where
        for item in value:
            yield from _empty_lists(item, f"{where}[]")


def assert_complete_reports(out_dir) -> None:
    """What a command wrote on an exit 0: at least one report, and no empty row list but those of `EMPTY_ON_PURPOSE`."""
    assert any(Path(out_dir).iterdir()), "exit 0 without a report"
    unexpected = empty_row_lists(out_dir) - EMPTY_ON_PURPOSE.keys()
    assert not unexpected, f"exit 0 with empty row lists: {sorted(unexpected)}"
