"""Rewrite tests/reports/, the committed reports of every command on the bundled inputs.

    PYTHONPATH=src python scripts/write_golden_reports.py
    PYTHONPATH=src python scripts/write_golden_reports.py --check

The first form reruns each command of `tests/golden.py` and replaces the
directory with what they write: a change that moves a report runs it, so
the move shows in the change's own diff.  `--check` writes nothing; it
compares a rerun with the committed reports byte for byte, prints the
largest absolute and relative difference of the numbers, and exits 1 on
a mismatch.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import golden  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed reports, write nothing")
    args = parser.parse_args()
    names = sorted(f for _, files in golden.runs().values() for f in files)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        golden.write_reports(out)
        if sorted(p.name for p in out.iterdir()) != names:
            sys.exit(f"the commands wrote {sorted(p.name for p in out.iterdir())}, expected {names}")
        if args.check:
            faults, abs_max, rel_max = golden.compare_files(golden.REPORTS, out, names)
            print(f"{len(names)} reports; largest difference {abs_max:.3g} absolute, {rel_max:.3g} relative")
            for fault in faults:
                print(fault)
            return 1 if faults else 0
        golden.REPORTS.mkdir(exist_ok=True)
        for old in golden.REPORTS.iterdir():
            old.unlink()
        for name in names:
            (golden.REPORTS / name).write_bytes((out / name).read_bytes())
    print(f"wrote {len(names)} reports to {golden.REPORTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
