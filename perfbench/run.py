"""tritrace benchmark: CLI workloads end to end, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's CLI command runs in a closed loop, one fresh
process per run and one run after another: one untimed warm-up run, then timed
runs for S seconds (at least three).  Each run is timed from spawn to exit;
``perfbench/launch.py`` marks when set-up (import plus the class tables of
every power) is done, and ``os.wait4`` gives the peak RSS of the run, which is
that of its largest process.

Between CLI runs the fixed reference task of ``reftask.py`` runs, with as
many processes as the workload has workers.  Each CLI run's times are scaled
by ``REF_S / r``, where ``r`` is the mean time of the reference runs just
before and just after it, so they read as seconds on the machine at the speed
it had when ``REF_S`` was measured (see ``REF_S``).  The reference uses no
tritrace code, so only the program changes the scaled times, not the
machine's drift.  Every metric is the median over the timed runs; the raw
median, the highest percentile with ten samples beyond it and the sample count
are printed beside it.

Every run is checked: exit status 0, output bytes identical to the first
run, and the content checks of ``check_output`` on that first output.  A run that fails
a check counts in ``failed``, so ``failed / attempted`` is the error rate.

With ``--trace 1`` the traced per-layer run of ``layers.py`` replaces the loop.
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
with provenance and every sample is written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads as wl_mod
from workloads import OUT, ROOT, SRC, Workload, make_workloads, master_seed, nproc

# Together these keep a whole benchmark run under three minutes even when a
# CLI run hangs.
RUN_TIMEOUT_S = 60.0      # one CLI run is killed after this
LOOP_DEADLINE_S = 90.0    # no new run starts later than this into the timed loop
MIN_RUNS = 3
SIM_CHECK_TRIALS = 4


@dataclass
class RunSample:
    exit_code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    output: bytes | None
    stderr_tail: str
    failures: list[str] = field(default_factory=list)
    ref_s: float | None = None    # mean reference-task time around this run


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(cmd: list[str], workdir: Path, cache: Path):
    """Run ``cmd`` in its own process group; returns (start, exit code, wall, rusage).

    The group is killed after ``RUN_TIMEOUT_S``, and stderr goes to
    ``workdir/stderr.txt``.
    """
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=wl_mod.child_env(cache),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(RUN_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, wall, usage


def run_cli(workload: Workload, argv: list[str], workdir: Path) -> RunSample:
    """One CLI run in a fresh process; returns its timings and output bytes."""
    ready = workdir / "ready"
    out = workdir / workload.output
    cache = workdir / "cache"
    ready.unlink(missing_ok=True)
    out.unlink(missing_ok=True)
    shutil.rmtree(cache, ignore_errors=True)
    cmd = [sys.executable, str(wl_mod.HERE / "launch.py"), str(ready),
           ",".join(map(str, workload.k_list)), "--", *argv]
    start, code, wall, usage = _spawn(cmd, workdir, cache)
    setup = float(ready.read_text()) - start if ready.exists() else None
    return RunSample(
        exit_code=code, wall_s=wall, setup_s=setup,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        output=out.read_bytes() if out.exists() else None,
        stderr_tail=(workdir / "stderr.txt").read_text(errors="replace")[-2000:])


def run_reference(procs: int, workdir: Path) -> float:
    """Wall time of one run of the reference task with ``procs`` processes."""
    cmd = [sys.executable, str(wl_mod.HERE / "reftask.py"), str(procs)]
    _, code, wall, _ = _spawn(cmd, workdir, workdir / "cache")
    if code != 0:
        raise RuntimeError(f"reference task exited {code}: "
                           + (workdir / "stderr.txt").read_text(errors="replace")[-500:])
    return wall


# ---------------------------------------------------------------------------
# Output checks (tritrace imported from src/)


def _csv_rows(data: bytes) -> list[list[str]]:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def _check_mdp(workload: Workload, master: int, rows: list[dict]) -> list[str]:
    """Recompute every row of the mdp CSV from the stats layer in this process.

    The thresholds come from ``dk_iid`` at the CLI's seed and replica count,
    the tail probabilities from ``mc_traces`` at one worker (the CLI uses two,
    and the worker count must not change a result).  For k=1 the trace is the
    sum of the diagonal, so D_1 is the variance of a Rademacher entry, exactly
    1; the thresholds must match that within five standard errors of dk_iid.
    """
    import numpy as np

    from tritrace.deviations import DEFAULT_RATE_TARGETS
    from tritrace.stats import dk_iid, mc_traces

    spec, (k,), n = workload.spec(), workload.k_list, workload.n
    nu = float(workload.extra_flags[workload.extra_flags.index("--nu") + 1])
    if len(rows) != len(DEFAULT_RATE_TARGETS):
        return [f"mdp wrote {len(rows)} rows, expected {len(DEFAULT_RATE_TARGETS)}"]
    dk = dk_iid(spec, k, wl_mod.MDP_DK_REPLICAS, master)
    lam = float(n) ** -nu
    s = math.sqrt(lam / n) * mc_traces(spec, n, (k,), workload.trials, master,
                                       workload.alpha, workload.epsilon)[:, 0]
    errors = []
    for row, target in zip(rows, DEFAULT_RATE_TARGETS):
        got = {key: float(row[key]) for key in ("nu", "delta", "tail_prob", "empirical_rate")}
        delta = math.sqrt(2.0 * dk.value * target)
        tail = float(np.mean(np.abs(s) >= delta))
        want = {"nu": nu, "delta": delta, "tail_prob": tail,
                "empirical_rate": -lam * math.log(tail) if tail else math.inf}
        for key, value in want.items():
            if not (got[key] == value or abs(got[key] - value) <= 1e-12 * abs(value)):
                errors.append(f"mdp {key} {got[key]!r} at rate {target}, recomputed {value!r}")
        if (int(row["n"]), int(row["trials"])) != (n, workload.trials):
            errors.append("mdp row has the wrong n or trials")
        if abs(got["delta"] ** 2 / (2.0 * target) - 1.0) > 5.0 * dk.standard_error:
            errors.append(f"mdp delta {got['delta']!r} at rate {target} implies D_1 "
                          f"{got['delta'] ** 2 / (2.0 * target)!r}, not 1")
    return errors


def check_output(workload: Workload, seed: int, master: int, data: bytes) -> list[str]:
    """Content checks on one output file; returns the problems found."""
    from tritrace.circuits import trace_power_direct
    from tritrace.ensembles import sample_matrix, trial_seed_sequence

    header, *rows = _csv_rows(data)
    if workload.command == "mdp":
        return _check_mdp(workload, master, [dict(zip(header, row)) for row in rows])
    if header != ["trial"] + [f"k{k}" for k in workload.k_list] or len(rows) != workload.trials:
        return ["simulate CSV has the wrong header or row count"]
    spec = workload.spec()
    table = {int(r[0]): [float(x) for x in r[1:]] for r in rows}
    raw = {}
    for t in wl_mod.check_trials(workload, seed, SIM_CHECK_TRIALS):
        matrix = sample_matrix(spec, workload.n, trial_seed_sequence(master, t))
        raw[t] = [trace_power_direct(matrix, k) for k in workload.k_list]
    return wl_mod.rows_agree(raw, table, wl_mod.scales(workload, spec))


# ---------------------------------------------------------------------------
# Timed loop and metrics


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest order statistic with at least ten samples above it, as (pct, value)."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 10          # 1-based rank of that order statistic
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    master = master_seed(workload, seed)
    argv = workload.argv(master)
    samples: list[RunSample] = []
    content: list[str] = []
    start = None
    ref_before = None
    while len(samples) <= MIN_RUNS or time.monotonic() - start < seconds:
        if start is not None and time.monotonic() - start > LOOP_DEADLINE_S:
            break
        s = run_cli(workload, argv, workdir)
        if not samples:
            # The first run warms the page cache and bytecode; it is checked
            # but not timed, and the timed loop starts after it.
            if s.exit_code == 0 and s.output is not None:
                content = check_output(workload, seed, master, s.output)
        else:
            ref_after = run_reference(workload.workers, workdir)
            s.ref_s = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
        reference = samples[0] if samples else s
        if s.exit_code != 0:
            s.failures.append(f"exit status {s.exit_code}: {s.stderr_tail}")
        elif s.output != reference.output:
            s.failures.append("output bytes differ from the first run")
        if s.setup_s is None:
            s.failures.append("launcher never reported set-up")
        s.failures += content
        samples.append(s)
        if start is None:
            start = time.monotonic()
            ref_before = run_reference(workload.workers, workdir)

    timed = samples[1:]
    good = [s for s in timed if not s.failures] or timed
    ref_s = REF_S[workload.workers]
    raw = {
        "wall_s": [s.wall_s for s in good],
        "setup_s": [s.setup_s or 0.0 for s in good],
        "trials_per_s": [workload.trials / (s.wall_s - (s.setup_s or 0.0)) for s in good],
        "peak_rss_mb": [s.peak_rss_mb for s in good],
    }
    scale = [ref_s / s.ref_s for s in good]   # below 1 when the machine ran slow
    series = {
        "wall_s": [v * f for v, f in zip(raw["wall_s"], scale)],
        "setup_s": [v * f for v, f in zip(raw["setup_s"], scale)],
        "trials_per_s": [v / f for v, f in zip(raw["trials_per_s"], scale)],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {"master_seed": master, "argv": argv, "samples": samples, "series": series,
            "raw": raw}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def provenance(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "tritrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
        "workload": workload.name, "seed": seed,
        "trials_per_run": workload.trials, "workers": workload.workers,
        "note": ("mdp-anderson runs 2 worker processes; on a 2-core machine its "
                 "timings include the process-pool hand-off competing for both cores"
                 if workload.workers > 1 else ""),
    }


# Reference-task times (mean wall time of ``reftask.py`` with 1 and 2
# processes) on a 2-vCPU virtual machine (Xeon, 2.1 GHz) shared with other
# tenants, in a quiet spell.  On that machine a fixed one-second task ranged
# from 0.65 s to 1.17 s over eight minutes, and medians of raw run times over
# 30-second windows spread by 9-37% (quartile distance over median); scaled
# by the reference task run beside them they spread by 5-8%.
REF_S = {1: 0.77, 2: 0.83}

UNITS = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


def _report_untraced(m: dict) -> tuple[dict, int, int]:
    samples = m["samples"]
    failed = sum(1 for s in samples if s.failures)
    metrics = {}
    for name, values in m["series"].items():
        unit = UNITS[name]
        metrics[name] = (statistics.median(values), unit)
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                     else "no percentile has ten samples beyond it")
        print(f"# {name}: median {metrics[name][0]:.6g} {unit} (raw {statistics.median(m['raw'][name]):.6g}), "
              f"{tail_text}, {len(values)} samples")
    print(f"# error_rate: {failed}/{len(samples)} = {failed / len(samples):.3g}")
    for problem in sorted({f.splitlines()[0] for s in samples for f in s.failures if f})[:10]:
        print(f"# failure: {problem}")
    return metrics, len(samples), failed


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl_mod.import_tritrace()
    table = make_workloads(tiny)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance(workload, args.seed), "trace": args.trace}

    if args.trace:
        import layers
        result = layers.traced_run(wl_mod.layer_sizes(tiny), workload, args.seed, OUT)
        metrics, attempted = result["metrics"], result["attempted"]
        failed = len(result["failures"])
        record.update(spans_file=result["spans_file"], failures=result["failures"],
                      classes=result["classes"])
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}")
        for name, count in result["classes"].items():
            print(f"# {name} = {count} classes (checked, not a metric)")
        for problem in result["failures"][:10]:
            print(f"# failure: {problem}")
    else:
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
        try:
            m = measure(workload, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics, attempted, failed = _report_untraced(m)
        record["provenance"].update(master_seed=m["master_seed"], cli_argv=m["argv"])
        record["runs"] = [{k: v for k, v in asdict(s).items() if k != "output"}
                          for s in m["samples"]]
    print(f"# provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
