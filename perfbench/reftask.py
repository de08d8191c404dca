"""Fixed reference task, timed beside every CLI run to correct for machine speed.

Usage: python3 perfbench/reftask.py PROCS

Imports numpy and scipy.special as tritrace does, then forks PROCS children
that each run the same fixed mix of interpreter work and small-array numpy
work, and waits for them.  It uses no tritrace code, so a change to the
program never changes its time; only the machine does.
"""

import os
import sys

import numpy as np
import scipy.special  # noqa: F401  (tritrace imports it; its import cost is part of the reference)

ROUNDS = 12000


def work() -> float:
    rng = np.random.default_rng(20260101)
    total = 0.0
    table: dict[int, int] = {}
    for i in range(ROUNDS):
        a = rng.integers(0, 2, 400) * 2.0 - 1.0
        total += float(np.dot(a[1:], a[:-1]) + np.sum(a * a))
        for j in range(30):
            key = (i * 31 + j) % 509
            table[key] = table.get(key, 0) + j
    return total + len(table)


def main(argv: list[str]) -> int:
    procs = int(argv[0])
    children = []
    for _ in range(procs):
        pid = os.fork()
        if pid == 0:
            work()
            os._exit(0)
        children.append(pid)
    status = 0
    for pid in children:
        status |= os.waitpid(pid, 0)[1]
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
