"""Start one tritrace CLI run the way the benchmark times it.

Usage: python3 perfbench/launch.py READY_FILE K_LIST -- CLI_ARGS...

Imports tritrace from ``src/``, builds the class table for every power in
K_LIST (comma-separated), writes the CLOCK_MONOTONIC time at which that set-up
finished to READY_FILE, then hands CLI_ARGS to ``tritrace.cli.main``.  The
tables land in the in-process cache of ``enumerate_types``, so the CLI finds
them there and the total work equals a plain ``tritrace`` run.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    ready_file, k_list, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py READY_FILE K_LIST -- CLI_ARGS...")
    import tritrace.cli
    from tritrace.circuits import enumerate_types

    for k in k_list.split(","):
        enumerate_types(int(k))
    Path(ready_file).write_text(repr(time.monotonic()), encoding="utf-8")
    return tritrace.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
