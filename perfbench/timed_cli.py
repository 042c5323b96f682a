"""Run one hdspec CLI command between two runs of the speed kernel.

Usage: python3 timed_cli.py SPEED_JSON -- hdspec-arguments...

Times the calibration kernel of `speed.py` before importing hdspec and
again after the command returned, in this same process, and writes the
two times to SPEED_JSON whether or not the command succeeded.  Exits
with the command's own exit code.
"""

import json
import sys

import speed


def main() -> int:
    speed_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: timed_cli.py SPEED_JSON -- hdspec-arguments...")
    kernels = [speed.kernel()]
    try:
        import hdspec.cli

        return hdspec.cli.main(argv)
    finally:
        kernels.append(speed.kernel())
        with open(speed_path, "w", encoding="utf-8") as f:
            json.dump(kernels, f)


if __name__ == "__main__":
    sys.exit(main())
