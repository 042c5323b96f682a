"""Every command's reports on the bundled inputs are the committed ones in tests/reports/, byte for byte.

A change that moves a report rewrites the directory with
`scripts/write_golden_reports.py`, so the move shows in its own diff.
No golden run loads numpy, which a fresh interpreter running them all
checks here, so the bytes hold on every numpy and LAPACK version.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hdspec.cli", *argv, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    files = sorted(f for _, files in golden.runs().values() for f in files)
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    faults, _, _ = golden.compare_files(golden.REPORTS, tmp_path, files)
    assert not faults, "\n".join(faults)


def test_every_committed_report_has_its_command():
    written = sorted(f for _, files in golden.runs().values() for f in files)
    assert sorted(p.name for p in golden.REPORTS.iterdir()) == written


def test_a_json_mismatch_names_the_key_path_and_the_largest_difference():
    want = json.dumps({"fit": {"center_khz": 0.25, "covariance": [[1.0, 2.0], [3.0, 4.0]]}, "n": 3}, indent=2)
    got = want.replace("3.0", "3.0000000003").replace("4.0", "4.000000002").replace("0.25", "0.2500000001")
    fault, abs_max, rel_max = golden.compare("fit_line.json", want, got)
    assert fault == (
        "fit_line.json: first difference at fit.center_khz: 0.25 -> 0.2500000001; "
        "largest difference 2e-09 absolute, 5e-10 relative"
    )
    assert (abs_max, rel_max) == pytest.approx((2e-9, 5e-10), rel=1e-6)
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
