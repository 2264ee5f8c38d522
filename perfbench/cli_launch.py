"""Traced CLI launcher: installs the span recorder, then runs the CLI.

    python3 perfbench/cli_launch.py SPANS_FILE -- [polarmorse arguments]

Behaves like ``python -m polarmorse.cli`` (same output and exit code) and
writes the recorded spans to SPANS_FILE when the call ends.  The checkout's
``src`` directory must be on PYTHONPATH.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Recorder  # noqa: E402


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rec = Recorder()
    rec.install()
    import polarmorse.cli
    try:
        return polarmorse.cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        rec.uninstall()
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
