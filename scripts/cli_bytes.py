#!/usr/bin/env python3
"""Hash the outputs of a fixed set of CLI commands, or check them against a listing.

    python3 scripts/cli_bytes.py [--src DIR] > listing.sha256
    python3 scripts/cli_bytes.py --check [--src DIR]

Runs every command of ``COMMANDS`` once with ``--workers 1`` and once with
``--workers 2``, each in a fresh ``python -m tritrace.cli`` process that
imports tritrace from ``--src`` (default: this checkout's ``src/``).  Prints
a header line naming the Python and numpy versions, then one line per run:
the command name, the worker count, the exit status and the sha256 of the
output file followed by standard output.  The output file records its own
path (``output_path``); that line is dropped before hashing, so two trees
give equal hashes exactly when their outputs are the same bytes.

``--check`` compares each run with ``LISTING`` (``cli_bytes.sha256`` beside
this script), prints every line that differs, and exits 1 on any difference
or when a command's two worker lines disagree, which would break the CLI's
byte-identity promise.  numpy's generators decide the Monte Carlo bytes, so
a difference on a numpy version other than the listing's says so.  A change
that moves bytes on purpose regenerates the listing in the same commit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "scripts" / "cli_bytes.sha256"
CONFIG = ["--config", str(ROOT / "scripts" / "cli_bytes.ini")]

ANDERSON = ["--ensemble", "anderson", "--d-law", "rademacher"]
BETA2 = ["--ensemble", "beta_hermite", "--beta", "2"]
HATANO = ["--ensemble", "hatano_nelson"]
BDQ = ["--ensemble", "birth_death_q"]
BDQ_SYM = ["--ensemble", "birth_death_q", "--symmetric", "true"]

# Sizes cross the 1024-trial blocks the workers share out; n reaches both
# sides of the 256-term summation block, and k both trace routes.  Odd n with
# Rademacher entries draws an odd number of signs from one stream, so its
# last sign is the low half of a raw word.
# `cov-generic-laws` draws Gaussian, Rademacher and Bernoulli windows; its odd
# replica count gives the Rademacher window an odd sign count behind one key.
# `cov-generic-constant` has constant off-diagonal laws, whose window slots
# after site 1 are read-only views of one value rather than filled arrays.
# `types-12` and `types-16` pin the class tables at the largest powers.
# Monte Carlo at k=1 alone on a Rademacher diagonal of its own counts sign
# bits instead of summing rows (`stats._trace_block`).  `mdp-anderson-k1`,
# `simulate-anderson-k1-odd` (odd n), `simulate-hatano-rademacher-k1` and
# `mdp-generic-rademacher-k1` reach that route.  `mdp` estimates D_k beside
# the blocks of its first size only; `mdp-anderson-nlist` (two sizes, derived
# thresholds, five blocks each) and `mdp-config` (two sizes, given
# thresholds) also reach the sizes after it.
# The `cramer` commands are the only ones that evaluate a law's log-MGF;
# `cramer-outside-support` puts grid points outside the support and on its
# edges, where the tilt reaches `--t-max`.
# In `trace-hatano-narrow` (k=9, n=5) both oracles reach the matrix's corners:
# the reference's band spans all n-1 = 4 diagonals on each side at the fourth
# and fifth powers, and the widest walk classes fill all five sites.
# `clt-config` and `mdp-config` take every setting but the three added by
# `run` from `cli_bytes.ini`, beside this script.
COMMANDS = {
    "simulate-beta-4.8.12": ["simulate", *BETA2, "--k-list", "4,8,12", "--n", "300",
                             "--trials", "1100"],
    "simulate-beta-4.8.12-n1000": ["simulate", *BETA2, "--k-list", "4,8,12", "--n", "1000",
                                   "--trials", "144"],
    "simulate-hatano": ["simulate", *HATANO, "--k-list", "1,2,3,7,8,9,10", "--n", "120",
                        "--trials", "1100"],
    "simulate-bdq-symmetric": ["simulate", *BDQ_SYM, "--k-list", "2,4,8,12", "--n", "100",
                               "--trials", "1100"],
    "simulate-bdq": ["simulate", *BDQ, "--k-list", "1,3,5", "--n", "257", "--trials", "1100"],
    "simulate-anderson": ["simulate", *ANDERSON, "--k-list", "1,2,3,4", "--n", "400",
                          "--trials", "2500"],
    "simulate-kernel-v": ["simulate", "--ensemble", "birth_death_kernel", "--k-list", "1,2,8",
                          "--n", "64", "--trials", "1100"],
    "simulate-kernel-conductance": ["simulate", "--ensemble", "birth_death_kernel",
                                    "--kernel-variant", "conductance", "--k-list", "1,2,8",
                                    "--n", "64", "--trials", "1100"],
    "simulate-generic-symmetric": ["simulate", "--ensemble", "generic_iid",
                                   "--a-law", "gaussian(0,1)", "--d-law", "bernoulli(0.3,-2,5)",
                                   "--symmetric", "true", "--k-list", "1,4,8", "--n", "64",
                                   "--trials", "1100"],
    "simulate-anderson-odd": ["simulate", *ANDERSON, "--k-list", "1,2,3,4", "--n", "401",
                              "--trials", "1100"],
    "simulate-generic-rademacher": ["simulate", "--ensemble", "generic_iid",
                                    "--a-law", "uniform(0.5,1.5)", "--d-law", "rademacher",
                                    "--b-law", "gaussian(0,1)", "--k-list", "1,2,4,8",
                                    "--n", "257", "--trials", "1100"],
    "simulate-generic-bernoulli-half": ["simulate", "--ensemble", "generic_iid",
                                        "--a-law", "uniform(0.5,1.5)",
                                        "--d-law", "bernoulli(0.5,-1,3)",
                                        "--b-law", "bernoulli(0.5,1,2)", "--k-list", "1,2,4",
                                        "--n", "129", "--trials", "1100"],
    "clt-anderson": ["clt", *ANDERSON, "--k-list", "1,3", "--n", "1000", "--trials", "2100",
                     "--replicas", "20000"],
    "clt-beta": ["clt", *BETA2, "--k-list", "1,2,8", "--n", "300", "--trials", "1500"],
    "clt-anderson-exponents": ["clt", *ANDERSON, "--k-list", "1,8", "--n", "200",
                               "--trials", "1100", "--replicas", "20000",
                               "--alpha", "0.25", "--epsilon", "0.1"],
    "cov-beta": ["cov", *BETA2, "--k-list", "1,2,3,4,8", "--n", "200", "--trials", "1200"],
    "cov-hatano": ["cov", *HATANO, "--k-list", "1,2,9", "--n", "100", "--trials", "1200",
                   "--replicas", "20000"],
    "cov-generic-laws": ["cov", "--ensemble", "generic_iid", "--a-law", "gaussian(0,1)",
                         "--d-law", "rademacher", "--b-law", "bernoulli(0.3,-2,5)",
                         "--k-list", "1,2,3", "--n", "64", "--trials", "1100",
                         "--replicas", "20001"],
    "cov-generic-constant": ["cov", "--ensemble", "generic_iid", "--a-law", "constant(0.5)",
                             "--d-law", "uniform(-1,1)", "--b-law", "constant(2)",
                             "--k-list", "1,2,3", "--n", "64", "--trials", "1100",
                             "--replicas", "20001"],
    "mdp-anderson-k3": ["mdp", *ANDERSON, "--k", "3", "--nu", "0.5", "--n", "100",
                        "--trials", "3000"],
    "mdp-anderson-k1": ["mdp", *ANDERSON, "--k", "1", "--nu", "0.5", "--n", "400",
                        "--trials", "24576"],
    "mdp-anderson-nlist": ["mdp", *ANDERSON, "--k", "1", "--nu", "0.5", "--n-list", "400,128",
                           "--trials", "5000"],
    "simulate-anderson-k1-odd": ["simulate", *ANDERSON, "--k-list", "1", "--n", "401",
                                 "--trials", "1100"],
    "simulate-hatano-rademacher-k1": ["simulate", *HATANO, "--d-law", "rademacher",
                                      "--k-list", "1", "--n", "120", "--trials", "1100"],
    "mdp-generic-rademacher-k1": ["mdp", "--ensemble", "generic_iid",
                                  "--a-law", "uniform(0.5,1.5)", "--d-law", "rademacher",
                                  "--b-law", "bernoulli(0.3,1,2)", "--k", "1", "--nu", "0.5",
                                  "--n", "257", "--trials", "3000"],
    "clt-config": ["clt", *CONFIG],
    "mdp-config": ["mdp", *CONFIG],
    "trace-anderson": ["trace", *ANDERSON, "--k", "6", "--n", "50"],
    "trace-beta": ["trace", *BETA2, "--k", "12", "--n", "60"],
    "trace-hatano-narrow": ["trace", *HATANO, "--k", "9", "--n", "5"],
    "cramer-rademacher": ["cramer", "--law", "rademacher"],
    "cramer-uniform": ["cramer", "--law", "uniform(-1,2)", "--points", "41"],
    "cramer-bernoulli": ["cramer", "--law", "bernoulli(0.3,-2,5)", "--points", "41"],
    "cramer-outside-support": ["cramer", "--law", "uniform(-1,2)", "--x-min", "-2",
                               "--x-max", "3", "--points", "11", "--t-max", "20"],
    "types-5": ["types", "--k", "5"],
    "types-8": ["types", "--k", "8"],
    "types-12": ["types", "--k", "12"],
    "types-16": ["types", "--k", "16"],
    "dump-anderson": ["dump-sample", *ANDERSON, "--n", "20"],
    "dump-beta": ["dump-sample", *BETA2, "--n", "20"],
    "dump-hatano": ["dump-sample", *HATANO, "--n", "20"],
    "dump-bdq": ["dump-sample", *BDQ, "--n", "20"],
    "dump-bdq-symmetric": ["dump-sample", *BDQ_SYM, "--n", "20"],
    "dump-kernel-v": ["dump-sample", "--ensemble", "birth_death_kernel", "--n", "20"],
    "dump-kernel-conductance": ["dump-sample", "--ensemble", "birth_death_kernel",
                                "--kernel-variant", "conductance", "--n", "20"],
    "dump-generic-rademacher": ["dump-sample", "--ensemble", "generic_iid",
                                "--a-law", "rademacher", "--d-law", "rademacher",
                                "--b-law", "rademacher", "--n", "21"],
}


def run(name: str, argv: list[str], workers: int, src: Path, tmp: Path) -> str:
    out = tmp / f"{name}-w{workers}.out"
    cmd = [sys.executable, "-m", "tritrace.cli", *argv, "--seed", "20240611",
           "--workers", str(workers), "--output", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("TRITRACE_WORKERS", None)
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=600)
    digest = hashlib.sha256()
    if out.exists():
        for line in out.read_bytes().splitlines(keepends=True):
            if b"output_path" not in line:
                digest.update(line)
    digest.update(proc.stdout)
    return f"{name} w{workers} exit={proc.returncode} {digest.hexdigest()}"


def header() -> str:
    """The listing's first line: the versions that decide its bytes."""
    return (f"# python {platform.python_version()} "
            f"numpy {importlib.metadata.version('numpy')}")


def listing(names, src: Path):
    """One line per run of each named command, workers 1 then 2."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for workers in (1, 2):
                yield run(name, COMMANDS[name], workers, src, Path(tmp))


def check(names, src: Path) -> list[str]:
    """Every way the runs of ``names`` differ from ``LISTING``.

    Empty when each run hashes as listed and each command's worker lines agree.
    """
    head, *lines = LISTING.read_text(encoding="utf-8").splitlines()
    want = {" ".join(line.split()[:2]): line for line in lines}
    numpy_note = ""
    if head.split()[-1] != header().split()[-1]:
        numpy_note = f"  (listing taken on numpy {head.split()[-1]}, " \
                     f"this is numpy {header().split()[-1]})"
    problems = []
    by_command: dict[str, list[str]] = {}
    for line in listing(names, src):
        key = " ".join(line.split()[:2])
        by_command.setdefault(line.split()[0], []).append(line.split(maxsplit=2)[2])
        if want.get(key) != line:
            problems.append(f"- {want.get(key, key + ' not listed')}\n+ {line}{numpy_note}")
    problems += [f"{name}: workers 1 and 2 disagree ({w1} / {w2})"
                 for name, (w1, w2) in by_command.items() if w1 != w2]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the tritrace package to run")
    ap.add_argument("--check", action="store_true",
                    help=f"compare with {LISTING.name}; exit 1 on any difference")
    args = ap.parse_args()
    src = args.src.resolve()
    if not (src / "tritrace" / "__init__.py").is_file():
        ap.error(f"no tritrace package under {src}")
    names = list(COMMANDS)
    if args.check:
        problems = check(names, src)
        for problem in problems:
            print(problem, flush=True)
        print(f"{len(names)} commands checked, {len(problems)} differences")
        return 1 if problems else 0
    print(header(), flush=True)
    for line in listing(names, src):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
