"""Run one hdspec CLI command with layer tracing on.

Usage: python3 traced_cli.py TRACE_JSON -- hdspec-arguments...

Exits with the command's own exit code; the spans and counts are
written to TRACE_JSON whether or not the command succeeded.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_JSON -- hdspec-arguments...")
    import hdspec.cli

    tracer = Tracer()
    tracer.install()
    try:
        return hdspec.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
