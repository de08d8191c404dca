"""Workload definitions, seeded input generation and run isolation.

Every workload is one ``tritrace`` CLI command at a fixed size.  The
benchmark seed decides the CLI's ``--seed`` (its master seed) and the trials
the checks recompute; the CLI itself only ever sees the generated flags.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

ROUTE_REL_TOL = 1e-9  # the CLI's own expansion-vs-banded gate
MDP_DK_REPLICAS = 200_000  # mdp_check's dk_replicas default, which the CLI keeps


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    tag: str                      # short name used inside per-layer metric names
    command: str
    ensemble: tuple[tuple[str, str], ...]   # config keys for tritrace.cli.spec_from_mapping
    k_list: tuple[int, ...]
    n: int
    trials: int                   # Monte Carlo trials per CLI run; 1 matrix for `trace`
    workers: int
    output: str
    extra_flags: tuple[str, ...] = ()
    alpha: float | None = None    # growth exponents the command passes to mc_traces
    epsilon: float | None = None

    def spec(self):
        from tritrace.cli import spec_from_mapping
        return spec_from_mapping(dict(self.ensemble))

    def argv(self, master_seed: int) -> list[str]:
        flags = [self.command]
        for key, value in self.ensemble:
            flags += ["--" + ("ensemble" if key == "model" else key.replace("_", "-")), value]
        if self.command == "mdp":
            flags += ["--k", str(self.k_list[0])]
        else:
            flags += ["--k-list", ",".join(map(str, self.k_list))]
        flags += ["--n", str(self.n), "--trials", str(self.trials)]
        return flags + list(self.extra_flags) + [
            "--seed", str(master_seed), "--workers", str(self.workers), "--output", self.output]


ANDERSON = (("model", "anderson"), ("d_law", "rademacher"))
BETA2 = (("model", "beta_hermite"), ("beta", "2"))


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's CLI workloads; ``tiny`` shrinks sizes for the self-test only."""
    wls = [
        # k=1 at n=400: per-trial fixed costs and the 2-worker block hand-off
        # dominate.  At this trial count every derived threshold expects fewer
        # than 50 tail events, so the 25% rate gate flags rather than compares.
        Workload("mdp-anderson", "mdp", "mdp", ANDERSON, (1,),
                 100 if tiny else 400, 2048 if tiny else 24576, min(2, nproc()), "out.csv",
                 ("--nu", "0.5"), alpha=0.0, epsilon=0.5),
        # k = 4, 8, 12 straddle the expansion/banded crossover; the class-product
        # kernel is most of the time and every trial is written as CSV.
        Workload("simulate-beta-highk", "sim", "simulate", BETA2, (4, 8, 12),
                 40 if tiny else 1000, 8 if tiny else 144, 1, "out.csv"),
    ]
    return {wl.name: wl for wl in wls}


def layer_sizes(tiny: bool = False) -> dict[str, Workload]:
    """Every size the traced run probes, by tag: the CLI workloads above plus two
    commands that are not run end to end, the acceptance-size CLT run (n=4000,
    where sampling dominates) and one n=4000 matrix at k=16 (where the class
    table dominates set-up time and memory)."""
    extra = [
        Workload("clt-anderson", "clt", "clt", ANDERSON, (1, 3), 400 if tiny else 4000,
                 256 if tiny else 4096, 1, "out.json",
                 ("--replicas", str(4_000 if tiny else 100_000))),
        Workload("trace-k16", "k16", "trace", BETA2, (16,), 40 if tiny else 4000, 1, 1,
                 "out.json"),
    ]
    return {wl.tag: wl for wl in [*make_workloads(tiny).values(), *extra]}


def master_seed(workload: Workload, seed: int) -> int:
    """CLI master seed for (workload, benchmark seed): a 32-bit hash."""
    digest = hashlib.sha256(f"{workload.name}/{seed}/0".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def check_trials(workload: Workload, seed: int, count: int) -> list[int]:
    """Trial indices the checks recompute, drawn from the benchmark seed."""
    rng = random.Random(f"{workload.name}/{seed}/check")
    return sorted(rng.sample(range(workload.trials), min(count, workload.trials)))


def child_env(cache_dir: Path) -> dict[str, str]:
    """Environment for one CLI run: no inherited worker count, one BLAS thread,
    and a private class-table cache so ``~/.cache/tritrace`` is never touched."""
    env = {k: v for k, v in os.environ.items() if k != "TRITRACE_WORKERS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TRITRACE_CACHE_DIR=str(cache_dir))
    return env


def import_tritrace() -> None:
    """Make ``src/`` importable in this process; fails clearly when it is absent."""
    if not (SRC / "tritrace" / "__init__.py").is_file():
        raise SystemExit(f"error: no tritrace sources under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def scales(workload: Workload, spec) -> list[float]:
    """Per-power factors ``n ** -(alpha*k + 1/2 - epsilon)`` that mc_traces applies."""
    alpha, epsilon = spec.default_growth
    if workload.alpha is not None:
        alpha, epsilon = workload.alpha, workload.epsilon
    return [float(workload.n) ** -(alpha * k + 0.5 - epsilon) for k in workload.k_list]


def rows_agree(raw: dict[int, list[float]], rows: dict[int, list[float]],
               scale: list[float]) -> list[str]:
    """Compare scaled, centred trial rows with raw traces of the same trials.

    Rows are compared as differences to the first trial, so the across-trial
    centring cancels; each difference must match to ``ROUTE_REL_TOL`` relative
    to the raw traces involved, the tolerance of the CLI's route gate.
    """
    trials = sorted(raw)
    base = trials[0]
    errors = []
    for t in trials[1:]:
        for j, s in enumerate(scale):
            want = (raw[t][j] - raw[base][j]) * s
            got = rows[t][j] - rows[base][j]
            bound = ROUTE_REL_TOL * s * (1.0 + max(abs(raw[t][j]), abs(raw[base][j])))
            if not abs(got - want) <= bound:
                errors.append(f"trial {t} column {j}: {got!r} vs {want!r}")
    return errors
