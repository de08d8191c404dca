"""Traced per-layer run: spans around calls into tritrace's public functions.

Nothing inside ``src/`` is instrumented.  This module calls each layer's
public functions itself, one span per call (or per batch of calls for
microsecond-scale functions), at the sizes of the workload each metric
belongs to.  Spans carry a name, start, end, parent and run id; they are kept
in memory and written as JSON lines when the run ends.  A span's name starts
with the module it times, and a layer's self time is the time its spans cover
minus the part their child spans cover.

Every traced run measures the same full set of per-layer metrics, whichever
workload it names, so a metric always has one meaning.  Names follow
``<module>.<function>.<workload tag>.<unit>``; powers replace the tag where
a metric is defined per power.  The number of walk classes per power is not a
metric but an invariant: a count that differs from ``CLASS_COUNTS`` is a
failed check.

Run as a script, ``python3 perfbench/layers.py --cold-tables 1,3,...`` builds
each class table once in a fresh process and prints its spans.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import workloads as wl_mod

LAYERS = ("ensembles", "circuits", "accumulate", "stats", "deviations", "cli")
# Walk classes per power as enumerate_types builds them at the commit that
# defined this benchmark; a class-table change must keep every count.
CLASS_COUNTS = {1: 1, 3: 3, 4: 6, 8: 61, 12: 638, 16: 6714}
KERNEL_POWERS = {"sim": (4, 8, 12), "k16": (16,)}
PROBE_TRIALS = {"clt": 512, "mdp": 2048, "sim": 48}
MICRO_BATCHES = 7


class Tracer:
    """In-memory spans; ``enabled=False`` turns ``span`` into a no-op."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.monotonic_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic_ns()
            self._stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Add spans recorded by a child process under the current span."""
        parent = self._stack[-1] if self._stack else None
        offset = len(self.spans)
        for rec in spans:
            self.spans.append({**rec, "id": rec["id"] + offset, "run": self.run_id,
                               "parent": parent if rec["parent"] is None
                               else rec["parent"] + offset})

    @contextmanager
    def around(self, module, layer: str, names: tuple[str, ...], tag: str):
        """Within the block, put a span around every call ``module`` makes to the
        named functions of ``layer``, by rebinding the names it looked them up
        under; the module's source is untouched and the names are restored."""
        saved = {name: getattr(module, name) for name in names}

        def traced(name, fn):
            def call(*args, **kwargs):
                with self.span(f"{layer}.{name}", tag=tag):
                    return fn(*args, **kwargs)
            return call

        for name, fn in saved.items():
            setattr(module, name, traced(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def seconds(self, name: str, tag: str) -> list[float]:
        return [(s["end"] - s["start"]) / 1e9 for s in self.spans
                if s["name"] == name and s.get("tag") == tag]

    def _self_ns(self) -> list[int]:
        """Per span: its time minus the time of its child spans."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_seconds(self, name: str, tag: str) -> list[float]:
        own = self._self_ns()
        return [own[s["id"]] / 1e9 for s in self.spans
                if s["name"] == name and s.get("tag") == tag]

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over its spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self._self_ns()):
            layer = s["name"].split(".")[0]
            if layer in out:
                out[layer] += own / 1e9
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _per_call_us(tracer: Tracer, name: str, tag: str, fn, calls: int) -> float:
    """Median over batches of the time per call, one span per batch."""
    for _ in range(MICRO_BATCHES):
        with tracer.span(name, tag=tag, calls=calls):
            for _ in range(calls):
                fn()
    return 1e6 * statistics.median(tracer.seconds(name, tag)) / calls


def _cold_tables(tracer: Tracer) -> None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--cold-tables",
           ",".join(map(str, CLASS_COUNTS))]
    with tempfile.TemporaryDirectory(dir=wl_mod.OUT) as tmp:
        proc = subprocess.run(cmd, env=wl_mod.child_env(Path(tmp)), capture_output=True,
                              text=True, timeout=120, check=True)
    tracer.adopt(json.loads(proc.stdout))


def _monte_carlo(tracer: Tracer, wl, seed: int, metrics: dict, problems: list):
    """mc_traces as the workload's command calls it, then the per-trial probe."""
    from tritrace.circuits import traces_for_k_list
    from tritrace.ensembles import sample_matrix, trial_seed_sequence
    from tritrace.stats import mc_traces

    tag, spec, master = wl.tag, wl.spec(), wl_mod.master_seed(wl, seed)
    with tracer.span("stats.mc_traces", tag=tag):
        samples = mc_traces(spec, wl.n, wl.k_list, wl.trials, master, wl.alpha, wl.epsilon,
                            workers=wl.workers)
    picks = wl_mod.check_trials(wl, seed, PROBE_TRIALS[tag])

    def probe(span) -> dict[int, list[float]]:
        raw = {}
        for t in picks:
            with span("probe.trial", tag=tag, trial=t):
                with span("ensembles.trial_seed_sequence", tag=tag):
                    stream = trial_seed_sequence(master, t)
                with span("ensembles.sample_matrix", tag=tag):
                    matrix = sample_matrix(spec, wl.n, stream)
                with span("circuits.traces_for_k_list", tag=tag):
                    raw[t] = list(traces_for_k_list(matrix, wl.k_list))
        return raw

    tracer.enabled = False
    start = time.perf_counter()
    probe(tracer.span)
    untraced = time.perf_counter() - start
    tracer.enabled = True
    with tracer.span("probe.traced", tag=tag) as rec:
        raw = probe(tracer.span)
    traced = (rec["end"] - rec["start"]) / 1e9
    problems += [f"{wl.name} probe vs mc_traces: {e}" for e in
                 wl_mod.rows_agree(raw, {t: list(samples[t]) for t in picks},
                                   wl_mod.scales(wl, spec))]

    for fn in ("ensembles.trial_seed_sequence", "ensembles.sample_matrix",
               "circuits.traces_for_k_list"):
        metrics[f"{fn}.{tag}.us"] = (1e6 * sum(tracer.seconds(fn, tag)) / len(picks), "us")
    metrics[f"stats.mc_traces.{tag}.s"] = (tracer.seconds("stats.mc_traces", tag)[0], "s")
    metrics[f"trace.{tag}.traced_trials_per_s"] = (len(picks) / traced, "1/s")
    metrics[f"trace.{tag}.untraced_trials_per_s"] = (len(picks) / untraced, "1/s")
    return samples


def _clt_extras(tracer, wl, seed, samples, out_dir, metrics) -> None:
    from tritrace import cli
    from tritrace.ensembles import sample_window_arrays
    from tritrace.stats import covariance_target, dependence_range, normality_report

    tag, spec, master = wl.tag, wl.spec(), wl_mod.master_seed(wl, seed)
    argv = wl.argv(master)
    replicas = int(argv[argv.index("--replicas") + 1])
    # the window _iid_mc_matrix draws: every lag of every power, plus the span
    length = max(dependence_range(k, spec.symmetric).m_k for k in wl.k_list) \
        + max(wl.k_list) // 2 + 1
    with tracer.span("ensembles.sample_window_arrays", tag=tag):
        sample_window_arrays(spec, 2, length, replicas, master + 1)
    with tracer.span("stats.covariance_target", tag=tag):
        target = covariance_target(wl.k_list, "iid_mc", spec=spec, replicas=replicas,
                                   seed=master + 1)
    alpha, epsilon = spec.default_growth
    with tracer.span("stats.normality_report", tag=tag):
        report = normality_report(samples, target, k_list=wl.k_list, n=wl.n,
                                  scaling_exponents=[alpha * k + 0.5 - epsilon
                                                     for k in wl.k_list])
    config = cli.build_config(cli._build_parser().parse_args(argv))
    results = {"report": report.to_json_dict(),
               "target": {"source": target.source, "value": target.value.tolist()}}
    with tracer.span("cli.write_json", tag=tag):
        text = cli.write_json(str(out_dir / wl.output), results, config)
    metrics[f"cli.output_bytes.{tag}"] = (len(text.encode()), "bytes")
    for name in ("ensembles.sample_window_arrays", "stats.covariance_target",
                 "stats.normality_report", "cli.write_json"):
        metrics[f"{name}.{tag}.s"] = (tracer.seconds(name, tag)[0], "s")


def _mdp_extras(tracer, wl, seed, out_dir, metrics) -> None:
    from tritrace import cli, deviations
    from tritrace.ensembles import sample_window_arrays
    from tritrace.stats import dependence_range

    tag, spec, master = wl.tag, wl.spec(), wl_mod.master_seed(wl, seed)
    argv = wl.argv(master)
    k = wl.k_list[0]
    nu = float(argv[argv.index("--nu") + 1])
    replicas = wl_mod.MDP_DK_REPLICAS
    length = dependence_range(k, spec.symmetric).m_k + k // 2 + 1
    with tracer.span("ensembles.sample_window_arrays", tag=tag):
        sample_window_arrays(spec, 2, length, replicas, master)
    # dk_iid and mc_traces as mdp_check calls them get spans of their own, so
    # mdp_check's self time is its own work: thresholds and tail counts.
    with tracer.around(deviations, "stats", ("dk_iid", "mc_traces"), tag="mdp_check"):
        with tracer.span("deviations.mdp_check", tag=tag):
            estimates = deviations.mdp_check(spec, k, nu, [wl.n], None, wl.trials, master,
                                             workers=wl.workers, dk_replicas=replicas)
    config = cli.build_config(cli._build_parser().parse_args(argv))
    rows = [[e.n, e.nu, e.delta, e.tail_prob, e.empirical_rate, e.predicted_rate,
             str(e.trials), ";".join(e.flags)] for e in estimates]
    header = ["n", "nu", "delta", "tail_prob", "empirical_rate", "predicted_rate",
              "trials", "flags"]
    with tracer.span("cli.write_csv", tag=tag):
        text = cli.write_csv(str(out_dir / wl.output), header, rows, config)
    metrics[f"cli.output_bytes.{tag}"] = (len(text.encode()), "bytes")
    for name in ("ensembles.sample_window_arrays", "cli.write_csv"):
        metrics[f"{name}.{tag}.s"] = (tracer.seconds(name, tag)[0], "s")
    metrics[f"stats.dk_iid.{tag}.s"] = (tracer.seconds("stats.dk_iid", "mdp_check")[0], "s")
    metrics[f"deviations.mdp_check.{tag}.self_s"] = (
        tracer.self_seconds("deviations.mdp_check", tag)[0], "s")


def _sim_extras(tracer, wl, seed, samples, out_dir, metrics) -> None:
    from tritrace import cli

    tag = wl.tag
    config = cli.build_config(cli._build_parser().parse_args(wl.argv(wl_mod.master_seed(wl, seed))))
    header = ["trial"] + [f"k{k}" for k in wl.k_list]
    rows = ([str(t)] + list(samples[t]) for t in range(samples.shape[0]))
    with tracer.span("cli.write_csv", tag=tag):
        text = cli.write_csv(str(out_dir / wl.output), header, rows, config)
    metrics[f"cli.output_bytes.{tag}"] = (len(text.encode()), "bytes")
    metrics[f"cli.write_csv.{tag}.s"] = (tracer.seconds("cli.write_csv", tag)[0], "s")


def _kernels(tracer, wl, seed, metrics, problems) -> None:
    """Both trace routes per power on one seeded matrix of the workload's size."""
    from tritrace.accumulate import compensated_sum
    from tritrace.circuits import enumerate_types, trace_power_direct, trace_power_expansion
    from tritrace.ensembles import sample_matrix

    matrix = sample_matrix(wl.spec(), wl.n, wl_mod.master_seed(wl, seed))
    for k in KERNEL_POWERS[wl.tag]:
        types = enumerate_types(k)
        reps = 3 if k >= 16 else 7
        for _ in range(reps):
            with tracer.span("circuits.trace_power_expansion", tag=f"k{k}"):
                expansion = trace_power_expansion(matrix, k, types)
            with tracer.span("circuits.trace_power_direct", tag=f"k{k}"):
                direct = trace_power_direct(matrix, k)
        if not abs(expansion - direct) <= wl_mod.ROUTE_REL_TOL * (1.0 + abs(direct)):
            problems.append(f"k={k}: expansion {expansion!r} vs banded {direct!r}")
        for route in ("expansion", "direct"):
            name = f"circuits.trace_power_{route}"
            metrics[f"{name}.k{k}.ms"] = (1e3 * statistics.median(tracer.seconds(name, f"k{k}")),
                                         "ms")
    if wl.tag == "sim":  # one call per class per trial, on up to n doubles
        metrics[f"accumulate.compensated_sum.{wl.tag}.us"] = (
            _per_call_us(tracer, "accumulate.compensated_sum", wl.tag,
                         lambda: compensated_sum(matrix.diag), 200), "us")


def _entry_micro(tracer, wl, seed, metrics) -> None:
    """Rademacher draws from a ready stream and matrix construction at the workload's n."""
    import numpy as np

    from tritrace.circuits import TridiagonalMatrix
    from tritrace.ensembles import EntryLaw, sample_matrix, trial_seed_sequence

    master = wl_mod.master_seed(wl, seed)
    rng = np.random.Generator(np.random.Philox(trial_seed_sequence(master, 0)))
    law = EntryLaw.rademacher()
    m = sample_matrix(wl.spec(), wl.n, trial_seed_sequence(master, 0))
    sub, diag, sup = np.array(m.sub), np.array(m.diag), np.array(m.sup)
    for name, fn in (
            ("ensembles.EntryLaw.sample", lambda: law.sample(rng, wl.n)),
            ("circuits.TridiagonalMatrix",
             lambda: TridiagonalMatrix(sub=sub, diag=diag, sup=sup))):
        metrics[f"{name}.{wl.tag}.us"] = (_per_call_us(tracer, name, wl.tag, fn, 100), "us")


def traced_run(by_tag: dict, named, seed: int, out_dir: Path) -> dict:
    """Measure every per-layer metric at the sizes ``by_tag`` gives each tag.

    Returns the metrics, the class counts, the check counts and the span file.
    """
    tracer = Tracer(run_id=f"{named.name}-seed{seed}-{time.time_ns()}")
    metrics: dict[str, tuple[float, str]] = {}
    classes: dict[str, int] = {}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        with tracer.span("probe.cold_tables"):
            _cold_tables(tracer)
        for s in tracer.spans:
            if s["name"] == "circuits.enumerate_types":
                k = int(s["tag"][1:])
                metrics[f"circuits.enumerate_types.{s['tag']}.s"] = (
                    (s["end"] - s["start"]) / 1e9, "s")
                classes[f"circuits.classes.{s['tag']}"] = s["classes"]
                if s["classes"] != CLASS_COUNTS[k]:
                    problems.append(f"enumerate_types({k}) built {s['classes']} classes, "
                                    f"not {CLASS_COUNTS[k]}")
        # Build the tables in this process too, as the CLI launcher does in set-up,
        # so mc_traces below times trials, not a first table build.
        from tritrace.circuits import enumerate_types
        with tracer.span("probe.warm_tables"):
            for k in sorted({k for wl in by_tag.values() for k in wl.k_list}):
                with tracer.span("circuits.enumerate_types", tag=f"warm-k{k}"):
                    enumerate_types(k)
        samples = {tag: _monte_carlo(tracer, by_tag[tag], seed, metrics, problems)
                   for tag in ("clt", "mdp", "sim")}
        _clt_extras(tracer, by_tag["clt"], seed, samples["clt"], tmp, metrics)
        _mdp_extras(tracer, by_tag["mdp"], seed, tmp, metrics)
        _sim_extras(tracer, by_tag["sim"], seed, samples["sim"], tmp, metrics)
        for tag in ("sim", "k16"):
            _kernels(tracer, by_tag[tag], seed, metrics, problems)
        for tag in ("clt", "mdp"):
            _entry_micro(tracer, by_tag[tag], seed, metrics)
    for layer, secs in tracer.layer_self_seconds().items():
        metrics[f"layer_self.{layer}.s"] = (secs, "s")
    spans_file = out_dir / f"spans-{named.name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    checks = sum(len(wl_mod.check_trials(by_tag[t], seed, PROBE_TRIALS[t])) - 1
                 for t in PROBE_TRIALS) + sum(len(v) for v in KERNEL_POWERS.values()) \
        + len(CLASS_COUNTS)
    return {"metrics": dict(sorted(metrics.items())), "classes": classes,
            "attempted": checks, "failures": problems, "spans_file": str(spans_file)}


def _cold_tables_main(powers: str) -> None:
    wl_mod.import_tritrace()
    from tritrace.circuits import enumerate_types

    tracer = Tracer(run_id="cold-tables")
    for k in map(int, powers.split(",")):
        with tracer.span("circuits.enumerate_types", tag=f"k{k}") as rec:
            rec["classes"] = len(enumerate_types(k))
    print(json.dumps(tracer.spans))


if __name__ == "__main__":
    if sys.argv[1:2] != ["--cold-tables"] or len(sys.argv) != 3:
        raise SystemExit("usage: layers.py --cold-tables K,K,...")
    _cold_tables_main(sys.argv[2])
