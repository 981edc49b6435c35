"""Run fixed CLI calls in a fresh interpreter; report time and peak memory.

Usage: python3 probe.py SRC_DIR < CALLS_JSON

CALLS_JSON (on stdin) is a list of argv lists for ``upsilon_lab.cli.main``.
Prints the seconds from before ``import upsilon_lab`` to after the last call,
then the process's peak resident set size in KiB.  Calls run whatever their
outcome: the benchmark checks outputs in its own timed loop, not here.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    calls = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    from upsilon_lab import cli

    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except (SystemExit, Exception):  # a failing call still counts for time and memory
                pass
    elapsed = time.perf_counter() - T0
    print(f"{elapsed!r} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
