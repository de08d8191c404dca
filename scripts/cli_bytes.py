#!/usr/bin/env python3
"""Hash the outputs of a fixed set of CLI commands, to diff two source trees.

    python3 scripts/cli_bytes.py [--src DIR] > hashes.txt

Runs every command of ``COMMANDS`` once with ``--workers 1`` and once with
``--workers 2``, each in a fresh ``python -m tritrace.cli`` process that
imports tritrace from ``--src`` (default: this checkout's ``src/``).  Prints
one line per run: the command name, the worker count, the exit status and
the sha256 of the output file followed by standard output.  The output file
records its own path (``output_path``); that line is dropped before hashing,
so two trees give equal hashes exactly when their outputs are the same bytes.
To compare a change with its parent, run this script once per tree, passing
the parent's ``src/`` the second time, and diff the two listings.  Lines that
differ only in the worker count would break the CLI's byte-identity promise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
# `types-12` and `types-16` pin the class tables at the largest powers.
# Monte Carlo at k=1 alone on a Rademacher diagonal of its own counts sign
# bits instead of summing rows (`stats._trace_block`).  `mdp-anderson-k1`,
# `simulate-anderson-k1-odd` (odd n), `simulate-hatano-rademacher-k1` and
# `mdp-generic-rademacher-k1` reach that route.
# The `cramer` commands are the only ones that evaluate a law's log-MGF.
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
    "mdp-anderson-k3": ["mdp", *ANDERSON, "--k", "3", "--nu", "0.5", "--n", "100",
                        "--trials", "3000"],
    "mdp-anderson-k1": ["mdp", *ANDERSON, "--k", "1", "--nu", "0.5", "--n", "400",
                        "--trials", "24576"],
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
    "cramer-rademacher": ["cramer", "--law", "rademacher"],
    "cramer-uniform": ["cramer", "--law", "uniform(-1,2)", "--points", "41"],
    "cramer-bernoulli": ["cramer", "--law", "bernoulli(0.3,-2,5)", "--points", "41"],
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the tritrace package to run")
    args = ap.parse_args()
    src = args.src.resolve()
    if not (src / "tritrace" / "__init__.py").is_file():
        ap.error(f"no tritrace package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            for workers in (1, 2):
                print(run(name, argv, workers, src, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
