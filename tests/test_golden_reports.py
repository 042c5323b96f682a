"""Every command's reports on the bundled inputs are the committed ones in tests/reports/, byte for byte.

A change that moves a report rewrites the directory with
`scripts/write_golden_reports.py`, so the move shows in its own diff.
No golden run loads numpy, which a fresh interpreter running them all
checks here, so the bytes hold on every numpy and LAPACK version.
The bundled files passed by their flags give the same reports, the runs
whose bytes could follow a set's order, and a grid long enough to take
numpy, give the same bytes in two fresh interpreters of different hash
seeds, and every JSON report is the text `json.dumps` writes for its
content.  The bundled demo inputs of
`fit-line` and `adev` are what `scripts/make_demo_data.py` writes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import golden
from conftest import run_python
from hdspec import bundled
from hdspec.cli import main


def assert_json_dumps_text(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    same = text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"  # no diff of megabytes on a failure
    assert same, f"{path} is not the text json.dumps(json.loads(text), sort_keys=True, indent=2) plus a newline"


@pytest.mark.parametrize("name", golden.runs())
def test_reports_are_the_committed_ones(tmp_path, name):
    golden.write_reports(tmp_path, [name])
    files = golden.runs()[name][1]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    faults, _, _ = golden.compare_files(golden.REPORTS, tmp_path, files)
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("name", ["fit-line", "adev", "spin-structure", "composite", "zeeman-map", "zeeman-coeffs"])
def test_reports_of_a_fresh_interpreter_are_the_committed_ones(tmp_path, name):
    """Each starts without numpy and computes on Python floats: `fit-line` and `adev` read their bundled
    inputs row by row, `spin-structure` and `composite` solve the F blocks of the demo sets, and `zeeman-map`
    and `zeeman-coeffs` their m_F blocks over the default field grid."""
    argv, files = golden.runs()[name]
    proc = run_python("-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    faults, _, _ = golden.compare_files(golden.REPORTS, tmp_path, files)
    assert not faults, "\n".join(faults)


def test_every_golden_run_in_one_fresh_interpreter_leaves_numpy_unloaded(tmp_path):
    """No golden run imports numpy, so no numpy version can move their bytes; and what they write is committed."""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(Path(golden.__file__).parent)!r})\n"
        "import golden\n"
        "golden.write_reports(Path(sys.argv[1]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = run_python("-c", script, str(tmp_path), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == "[]\n"
    files = sorted(f for _, files in golden.runs().values() for f in files)
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    faults, _, _ = golden.compare_files(golden.REPORTS, tmp_path, files)
    assert not faults, "\n".join(faults)


def test_every_committed_report_has_its_command():
    written = sorted(f for _, files in golden.runs().values() for f in files)
    assert sorted(p.name for p in golden.REPORTS.iterdir()) == written


def test_every_committed_json_report_is_the_text_json_dumps_writes():
    paths = sorted(golden.REPORTS.glob("*.json"))
    assert paths
    for path in paths:
        assert_json_dumps_text(path)


# golden runs with the bundled file they read by default passed by its flag, and without --demo where that would
# supply the file instead
EXPLICIT_FILE_RUNS = {
    "spin-structure": ["spin-structure", "--coefficients", str(bundled.data_path("demo_coefficients.conf")), "--format", "csv"],
    "zeeman-coeffs": [*golden.runs()["zeeman-coeffs"][0], "--couplings", str(bundled.data_path("zeeman_couplings.txt"))],
    "composite": [*golden.runs()["composite"][0], "--lines", str(bundled.data_path("measured_lines.json"))],
    "compare": ["compare", "--input", str(bundled.data_path("determinations_mp_over_me.json"))],
}


@pytest.mark.parametrize("name", sorted(EXPLICIT_FILE_RUNS))
def test_bundled_files_passed_by_their_flags_give_the_committed_reports(tmp_path, capsys, name):
    assert main([*EXPLICIT_FILE_RUNS[name], "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    files = golden.runs()[name][1]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    faults, _, _ = golden.compare_files(golden.REPORTS, tmp_path, files)
    assert not faults, "\n".join(faults)


def test_the_demo_data_script_writes_the_bundled_files_byte_for_byte(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_data.py"
    spec = importlib.util.spec_from_file_location("make_demo_data", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    assert capsys.readouterr().out == f"wrote demo data into {tmp_path}\n"
    names = ["demo_counter.csv", "line12_depletion.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == bundled.data_path(name).read_bytes(), name


FINE_FIELDS = ",".join(f"{i / 10000:.4f}" for i in range(2001))  # 0-0.2 G in 0.1 mG steps
# runs in two fresh interpreters of different hash seeds, with the reports each writes: the further golden runs that
# select a model, a reference, a profile or a sign, composite without a sensitivity table and a ledger of entries;
# and a grid long enough to take numpy, whose reports are not committed
HASH_SEED_RUNS = {
    **{
        name: (argv, [f.removeprefix(golden.PREFIXES[name]) for f in files])
        for name, (argv, files) in golden.runs().items()
        if name in ("extract-penning", "extrapolate-rf-linear", "compare-reference", "dfg-signs", "composite-tableless",
                    "ledger-entries")
    },
    "zeeman-map-2001": (["zeeman-map", "--demo", "--b-values", FINE_FIELDS], ["zeeman_map.csv", "zeeman_map.json"]),
}


@pytest.mark.parametrize("name", sorted(HASH_SEED_RUNS))
def test_further_runs_write_the_same_bytes_under_two_hash_seeds(tmp_path, name):
    """Each in two fresh interpreters, whose str hashes and so set orders differ: exit 0, nothing on stderr, the
    same report bytes, and each JSON report the text json.dumps writes."""
    argv, files = HASH_SEED_RUNS[name]
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        proc = run_python("-m", "hdspec.cli", *argv, "--out-dir", str(out), PYTHONHASHSEED=seed)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
    faults, _, _ = golden.compare_files(tmp_path / "seed1", tmp_path / "seed2", files)
    assert not faults, "\n".join(faults)
    for path in (tmp_path / "seed1").glob("*.json"):
        assert_json_dumps_text(path)


def test_a_json_mismatch_names_the_key_path_and_the_largest_difference():
    want = json.dumps({"fit": {"center_khz": 0.25, "covariance": [[1.0, 2.0], [3.0, 4.0]]}, "n": 3}, indent=2)
    got = want.replace("3.0", "3.0000000003").replace("4.0", "4.000000002").replace("0.25", "0.2500000001")
    fault, abs_max, rel_max = golden.compare("fit_line.json", want, got)
    assert fault == (
        "fit_line.json: first difference at fit.center_khz: 0.25 -> 0.2500000001; "
        "largest difference 2e-09 absolute, 5e-10 relative"
    )
    assert (abs_max, rel_max) == pytest.approx((2e-9, 5e-10), rel=1e-6, abs=0)
    assert golden.compare("fit_line.json", want, want) == (None, 0.0, 0.0)


def test_a_csv_mismatch_names_the_row_and_column():
    want = "tau_s,adev\r\n1.0,2.5e-13\r\n2.0,1.25e-13\r\n"
    fault, _, _ = golden.compare("adev.csv", want, want.replace("1.25e-13", "1.26e-13"))
    assert fault == "adev.csv: first difference at row 3, adev: '1.25e-13' -> '1.26e-13'; largest difference 1e-15 absolute, 0.00794 relative"


def test_text_between_numbers_must_match_under_any_bound():
    """A difference of text, not of numbers, is named as such."""
    want = '{\n  "status": "pass"\n}\n'
    fault, _, _ = golden.compare("r.json", want, want.replace("pass", "fail"))
    assert fault == "r.json: first difference at status: 'pass' -> 'fail'; text differs"
    # a line end is text too
    assert golden.compare("a.csv", "a\r\n1\r\n", "a\n1\n")[0] == "a.csv: first difference at text only; text differs"
