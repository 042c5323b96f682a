"""List the code objects of src/hdspec that neither the golden report runs nor the acceptance tests call.

    PYTHONPATH=src python scripts/reach_probe.py

Under `sys.setprofile` it imports `hdspec`, runs every command of
`tests/golden.py` on the bundled inputs (`golden.write_reports`), then
runs `tests/test_acceptance.py` with pytest, all in this process, so
what runs on import counts as called.  It then compiles each source file
of the imported `hdspec` package and prints every function, method,
lambda and comprehension in it that no call reached, as `file:line
name`.  Module and class bodies run on import and are not counted.

What it cannot see, so a listed name is not necessarily dead code:
- error paths: only well-formed bundled inputs run, so the code that
  refuses malformed input or flags shows as never called;
- other option values: every flag of every command is in some golden
  run, but each with the values of that run only;
- large inputs: paths taken only above a size threshold, such as the
  counter log of 512 KiB or more, or a field grid past the Python-float
  work bound;
- the tests other than the acceptance tests, and perfbench: what only
  they reach is listed too.
The count of comprehensions depends on the Python version (3.12 inlines
list, set and dict comprehensions).

It prints what it found and exits with the acceptance tests' pytest
exit code; what it lists never changes the exit code.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import pytest  # noqa: E402

BLIND_SPOTS = (
    "error paths (only well-formed bundled inputs run)",
    "other option values (every flag runs, with its golden values only)",
    "large inputs (size-gated paths such as the large counter log or a long field grid)",
)


def _code_objects(code):
    """`code` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _key(code) -> tuple[str, int, str, bytes]:
    """What tells a code object of a source file from the others, on any Python version (3.10 has no `co_qualname`)."""
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name, code.co_code


def defined() -> dict[tuple[str, int, str, bytes], str]:
    """`_key` -> printed name of each function-like code object in the `hdspec` sources."""
    package = Path(sys.modules["hdspec"].__file__).resolve().parent
    out = {}
    for path in sorted(package.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in _code_objects(module):
            if code.co_flags & inspect.CO_OPTIMIZED:  # functions and comprehensions, not module or class bodies
                name = getattr(code, "co_qualname", code.co_name)
                out[_key(code)] = f"{os.path.relpath(path, ROOT)}:{code.co_firstlineno} {name}"
    return out


def called_while(run) -> tuple[set, object]:
    """The code objects that `run()` calls, and what it returns."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, result


def main() -> int:
    def run():
        import golden  # and with it hdspec, under the profile

        with tempfile.TemporaryDirectory() as tmp:
            golden.write_reports(Path(tmp))
        return golden, pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])

    seen, (golden, code) = called_while(run)
    reached = set(map(_key, seen))
    names = defined()
    missed = [printed for key, printed in names.items() if key not in reached]
    print(f"\nreach probe (Python {sys.version.split()[0]}): {len(golden.runs())} golden runs and "
          f"tests/test_acceptance.py (pytest exit code {int(code)})")
    print(f"{len(names) - len(missed)} of {len(names)} code objects of src/hdspec called; {len(missed)} never called:")
    for printed in missed:
        print(f"  {printed}")
    print("not seen by this probe: " + "; ".join(BLIND_SPOTS))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
