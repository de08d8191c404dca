"""Batch front-end: parse a run configuration, dispatch experiments, emit files.

Configuration is flat key=value text with one section per concern
(``[run]``, ``[ensemble]``, and one section per command); command-line flags
override file keys.  Every output file embeds the resolved configuration and
the artifact version.  The worker count is deliberately excluded from the
embedded configuration: scheduling never changes results, and output bytes
must not depend on it.

Exit status: 0 on success, 2 when a statistical acceptance threshold was
exceeded, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    TridiagonalMatrix,
    enumerate_types,
    trace_power_direct,
    trace_power_expansion,
    types_as_json_lines,
)
from .deviations import cramer_rate_k1, mdp_check
from .ensembles import EnsembleSpec, EntryLaw, sample_matrix
from .errors import ConfigError, TriTraceError
from .stats import (
    covariance_target,
    growth_exponents,
    mc_traces,
    normality_report,
    sample_covariance,
)

DEFAULT_SEED = 0x5EED
COMMANDS = ("types", "trace", "simulate", "clt", "cov", "mdp", "cramer", "dump-sample")
TRACE_REL_TOL = 1e-9


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    command: str
    ensemble: EnsembleSpec | None = None
    k_list: tuple[int, ...] | None = None
    n: int | None = None
    n_list: tuple[int, ...] | None = None
    trials: int | None = None
    master_seed: int = DEFAULT_SEED
    nu: float | None = None
    delta_list: tuple[float, ...] | None = None
    output_path: str | None = None
    output_format: str = "json"
    workers: int = 1
    extras: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """Deterministic provenance mapping (workers excluded by design)."""
        out = {"command": self.command, "master_seed": self.master_seed,
               "output_format": self.output_format}
        if self.ensemble is not None:
            for key, val in self.ensemble.describe().items():
                out[f"ensemble.{key}"] = val
        for key, val in (("k_list", self.k_list), ("n", self.n), ("n_list", self.n_list),
                         ("trials", self.trials), ("nu", self.nu),
                         ("delta_list", self.delta_list), ("output_path", self.output_path)):
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        for key in sorted(self.extras):
            if self.extras[key] is not None:
                out[key] = self.extras[key]
        return out


# ---------------------------------------------------------------------------
# Config file handling


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    import configparser  # only --config reads one; keep it off the import path

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if not sections:
        raise ConfigError(f"config file {path!r} is empty (no sections)")
    return sections


def _convert(key: str, conv, value):
    """``conv(value)``, with a malformed value reported as a :class:`ConfigError`."""
    try:
        return conv(value)
    except ValueError as exc:
        raise ConfigError(f"malformed value for {key}: {value!r}") from exc


def _parse_list(conv):
    """Parser of a comma-separated list of ``conv`` values."""
    return lambda text: tuple(conv(tok) for tok in str(text).replace(" ", "").split(",") if tok)


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def spec_from_mapping(m: dict) -> EnsembleSpec:
    """Build an :class:`EnsembleSpec` from flat config keys."""
    model = str(m.get("model", "")).strip().lower().replace("-", "_")
    if not model:
        raise ConfigError("ensemble model missing")

    def law(key: str) -> EntryLaw | None:
        raw = m.get(key)
        return EntryLaw.parse(raw) if raw else None

    if model == "anderson":
        return EnsembleSpec.anderson(d_law=law("d_law"))
    if model == "beta_hermite":
        if "beta" not in m:
            raise ConfigError("beta_hermite requires a beta key")
        return EnsembleSpec.beta_hermite(_convert("beta", float, m["beta"]))
    if model == "hatano_nelson":
        return EnsembleSpec.hatano_nelson(a_law=law("a_law"), d_law=law("d_law"),
                                          b_law=law("b_law"))
    if model == "birth_death_kernel":
        return EnsembleSpec.birth_death_kernel(law=law("kernel_law"),
                                               variant=str(m.get("kernel_variant", "v")))
    if model == "birth_death_q":
        return EnsembleSpec.birth_death_q(a_law=law("a_law"), b_law=law("b_law"),
                                          symmetric=_parse_bool(m.get("symmetric", False)))
    if model == "generic_iid":
        a_law, d_law, b_law = law("a_law"), law("d_law"), law("b_law")
        if a_law is None or d_law is None:
            raise ConfigError("generic_iid requires a_law and d_law")
        return EnsembleSpec.generic_iid(
            a_law=a_law, d_law=d_law, b_law=b_law,
            symmetric=_parse_bool(m.get("symmetric", False)),
            coupling=str(m.get("coupling", "independent_streams")))
    raise ConfigError(f"unknown ensemble model {model!r}")


def _resolve_workers(value) -> int:
    if value is None:
        value = os.environ.get("TRITRACE_WORKERS", "1")
    if str(value).strip().lower() == "auto":
        # the CPUs this process may run on, which a cpuset or taskset narrows
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    workers = _convert("workers", int, value)
    if workers < 1:
        raise ConfigError("workers must be >= 1 or 'auto'")
    return workers


def build_config(args: argparse.Namespace) -> RunConfig:
    sections: dict[str, dict] = {}
    if getattr(args, "config", None):
        sections = _read_config_file(args.config)
    run_sec = sections.get("run", {})
    cmd_sec = sections.get(args.command.replace("-", "_"), {})
    merged: dict = {}
    merged.update(run_sec)
    merged.update(cmd_sec)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        merged[key] = val

    ens_map = dict(sections.get("ensemble", {}))
    for flag, key in (("ensemble", "model"), ("beta", "beta"), ("d_law", "d_law"),
                      ("a_law", "a_law"), ("b_law", "b_law"), ("kernel_law", "kernel_law"),
                      ("kernel_variant", "kernel_variant"), ("symmetric", "symmetric"),
                      ("coupling", "coupling")):
        val = getattr(args, flag, None)
        if val is not None:
            ens_map[key] = val
    spec = spec_from_mapping(ens_map) if ens_map.get("model") else None

    def pick(key, conv, default=None):
        if key not in merged or merged[key] is None:
            return default
        return _convert(key, conv, merged[key])

    extras = {}
    for key, conv in (("alpha", float), ("epsilon", float), ("replicas", int),
                      ("tolerance", float), ("law", str), ("x_min", float),
                      ("x_max", float), ("points", int), ("t_max", float),
                      ("input", str), ("k", int)):
        if key in merged and merged[key] is not None:
            extras[key] = _convert(key, conv, merged[key])

    return RunConfig(
        command=args.command,
        ensemble=spec,
        k_list=pick("k_list", _parse_list(int)),
        n=pick("n", int),
        n_list=pick("n_list", _parse_list(int)),
        trials=pick("trials", int),
        master_seed=pick("master_seed", int, pick("seed", int, DEFAULT_SEED)),
        nu=pick("nu", float),
        delta_list=pick("delta_list", _parse_list(float)),
        output_path=pick("output", str),
        output_format=pick("format", str, "json"),
        workers=_resolve_workers(merged.get("workers")),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def write_json(path: str | None, results: dict, config: RunConfig) -> str:
    payload = {
        "artifact": {"name": "tritrace", "version": __version__},
        "config": config.describe(),
        "results": results,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    return text


def write_csv(path: str | None, header: list[str], rows, config: RunConfig) -> str:
    buf = io.StringIO()
    buf.write(f"# tritrace {__version__}\n")
    for key, val in sorted(config.describe().items()):
        buf.write(f"# config.{key} = {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    text = buf.getvalue()
    if path:
        Path(path).write_text(text, encoding="utf-8")
    return text


def matrix_to_csv_rows(matrix: TridiagonalMatrix):
    n = matrix.n
    for i in range(n):
        sub = "" if i == 0 else _fmt(matrix.sub[i - 1])
        sup = "" if i == n - 1 else _fmt(matrix.sup[i])
        yield [sub, _fmt(matrix.diag[i]), sup]


def matrix_from_csv(path: str) -> TridiagonalMatrix:
    sub, diag, sup = [], [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh)
                    if row and not row[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read matrix CSV: {exc}") from exc
    if rows and rows[0][:2] == ["sub", "diag"]:
        rows = rows[1:]
    for idx, row in enumerate(rows):
        if len(row) < 2:
            raise ConfigError(f"matrix row {idx + 1} malformed: {row!r}")
        where = f"matrix row {idx + 1}"
        if idx > 0:
            sub.append(_convert(where, float, row[0]))
        diag.append(_convert(where, float, row[1]))
        if len(row) > 2 and row[2].strip() != "":
            sup.append(_convert(where, float, row[2]))
    n = len(diag)
    if len(sup) != n - 1 or len(sub) != n - 1:
        raise ConfigError("matrix CSV has inconsistent column lengths")
    return TridiagonalMatrix(sub=np.array(sub), diag=np.array(diag), sup=np.array(sup))


# ---------------------------------------------------------------------------
# Commands


def _require(config: RunConfig, *keys: str) -> None:
    missing = [key for key in keys if getattr(config, key, None) is None]
    if missing:
        raise ConfigError(f"{config.command}: missing required keys {missing}")


def _first_given(config: RunConfig, what: str, *values):
    """The first of ``values`` that is not None, so that an explicit 0 reaches
    validation instead of falling back to the next option."""
    for value in values:
        if value is not None:
            return value
    raise ConfigError(f"{config.command}: missing {what}")


def _power(config: RunConfig) -> int:
    """``--k``, else the first power of ``--k-list``."""
    return int(_first_given(config, "k", config.extras.get("k"),
                            config.k_list[0] if config.k_list else None))


def _cmd_types(config: RunConfig) -> int:
    k = _power(config)
    types = enumerate_types(k)
    print(f"power {k}: {len(types)} circuit types")
    print(f"{'l':>3} {'m':>18} {'n':>22} {'count':>8}")
    for t in types:
        print(f"{t.span:>3} {str(list(t.half_edges)):>18} {str(list(t.loops)):>22} {t.count:>8}")
    if config.output_path:
        Path(config.output_path).write_text(types_as_json_lines(types), encoding="utf-8")
    return 0


def _cmd_trace(config: RunConfig) -> int:
    k = _power(config)
    if config.extras.get("input"):
        matrix = matrix_from_csv(config.extras["input"])
    else:
        if config.ensemble is None or config.n is None:
            raise ConfigError("trace: need --input or an ensemble and n")
        matrix = sample_matrix(config.ensemble, config.n, config.master_seed)
    expansion = trace_power_expansion(matrix, k, enumerate_types(k))
    direct = trace_power_direct(matrix, k)
    diff = abs(expansion - direct)
    rel = diff / (1.0 + abs(direct))
    print(f"expansion: {_fmt(expansion)}")
    print(f"direct:    {_fmt(direct)}")
    print(f"difference: {_fmt(diff)} (relative {_fmt(rel)})")
    if config.output_path:
        write_json(config.output_path,
                   {"k": k, "n": matrix.n, "expansion": expansion, "direct": direct,
                    "difference": diff, "relative_difference": rel}, config)
    return 0 if rel <= TRACE_REL_TOL else 2


def _cmd_simulate(config: RunConfig) -> int:
    _require(config, "ensemble", "k_list", "n", "trials")
    samples = mc_traces(config.ensemble, config.n, config.k_list, config.trials,
                        config.master_seed, config.extras.get("alpha"),
                        config.extras.get("epsilon"), workers=config.workers)
    header = ["trial"] + [f"k{k}" for k in config.k_list]
    rows = ([str(t)] + [_fmt(v) for v in samples[t]] for t in range(samples.shape[0]))
    text = write_csv(config.output_path, header, rows, config)
    if not config.output_path:
        sys.stdout.write(text)
    return 0


def _clt_target(config: RunConfig):
    spec = config.ensemble
    if spec.model == "beta_hermite":
        return covariance_target(config.k_list, "beta_hermite", beta=spec.beta)
    replicas = config.extras.get("replicas", 100_000)
    return covariance_target(config.k_list, "iid_mc", spec=spec, replicas=replicas,
                             seed=config.master_seed + 1)


def _cmd_clt(config: RunConfig) -> int:
    _require(config, "ensemble", "k_list", "n", "trials")
    alpha = config.extras.get("alpha")
    epsilon = config.extras.get("epsilon")
    samples = mc_traces(config.ensemble, config.n, config.k_list, config.trials,
                        config.master_seed, alpha, epsilon, workers=config.workers)
    target = _clt_target(config)
    exponents = growth_exponents(config.ensemble, config.k_list, alpha, epsilon)
    report = normality_report(samples, target, k_list=config.k_list, n=config.n,
                              scaling_exponents=exponents)
    results = {
        "report": report.to_json_dict(),
        "target": {"source": target.source, "value": target.value.tolist()},
    }
    text = write_json(config.output_path, results, config)
    if not config.output_path:
        sys.stdout.write(text)
    exceeded = [k for k, d in zip(config.k_list, report.ks_distance)
                if d > report.ks_critical_1pct]
    if exceeded:
        print(f"KS distance above 1% critical value for powers {exceeded}", file=sys.stderr)
        return 2
    return 0


def _cmd_cov(config: RunConfig) -> int:
    _require(config, "ensemble", "k_list", "n", "trials")
    samples = mc_traces(config.ensemble, config.n, config.k_list, config.trials,
                        config.master_seed, config.extras.get("alpha"),
                        config.extras.get("epsilon"), workers=config.workers)
    target = _clt_target(config)
    emp, se = sample_covariance(samples)
    tol = config.extras.get("tolerance", 0.10)
    k_arr = np.array(config.k_list)
    mixed = (k_arr[:, None] % 2) != (k_arr[None, :] % 2)
    dev = np.abs(emp - target.value)
    allowed = np.where(mixed, 4.0 * se, np.maximum(tol * np.abs(target.value), 4.0 * se))
    ok = bool(np.all(dev <= allowed))
    results = {
        "k_list": list(config.k_list),
        "target": {"source": target.source, "value": target.value.tolist()},
        "empirical": emp.tolist(),
        "standard_errors": se.tolist(),
        "tolerance": tol,
        "within_tolerance": ok,
    }
    text = write_json(config.output_path, results, config)
    print("target:")
    print(np.array2string(target.value, precision=6))
    print("empirical:")
    print(np.array2string(emp, precision=6))
    if not ok:
        print("covariance deviates beyond tolerance", file=sys.stderr)
        return 2
    return 0


def _cmd_mdp(config: RunConfig) -> int:
    _require(config, "ensemble", "nu", "trials")
    k = _power(config)
    n_list = _first_given(config, "n or n_list", config.n_list,
                          None if config.n is None else (config.n,))
    estimates = mdp_check(config.ensemble, k, config.nu, n_list, config.delta_list,
                          config.trials, config.master_seed, workers=config.workers)
    header = ["n", "nu", "delta", "tail_prob", "empirical_rate", "predicted_rate",
              "trials", "flags"]
    rows = [[_fmt(e.n), _fmt(e.nu), _fmt(e.delta), _fmt(e.tail_prob),
             _fmt(e.empirical_rate), _fmt(e.predicted_rate), str(e.trials),
             ";".join(e.flags)] for e in estimates]
    text = write_csv(config.output_path, header, rows, config)
    if not config.output_path:
        sys.stdout.write(text)
    tol = config.extras.get("tolerance", 0.25)
    bad = [e for e in estimates
           if not e.flags and not math.isclose(e.predicted_rate, 0.0)
           and abs(e.empirical_rate - e.predicted_rate) > tol * e.predicted_rate]
    if bad:
        print(f"{len(bad)} rate estimates deviate beyond {tol:.0%}", file=sys.stderr)
        return 2
    return 0


def _cmd_cramer(config: RunConfig) -> int:
    law_text = config.extras.get("law")
    if not law_text:
        raise ConfigError("cramer: missing entry law")
    law = EntryLaw.parse(law_text)
    if law.support is None:
        raise ConfigError("cramer: entry law must have compact support")
    lo, hi = law.support
    x_min = config.extras.get("x_min", lo)
    x_max = config.extras.get("x_max", hi)
    points = config.extras.get("points", 101)
    if points < 1:
        raise ConfigError(f"cramer: points must be >= 1, got {points}")
    grid = np.linspace(x_min, x_max, points)
    result = cramer_rate_k1(law, grid, t_max=config.extras.get("t_max", 50.0))
    rows = [[_fmt(x), _fmt(i)] for x, i in zip(result.grid, result.rate)]
    text = write_csv(config.output_path, ["x", "rate"], rows, config)
    if not config.output_path:
        sys.stdout.write(text)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_dump_sample(config: RunConfig) -> int:
    _require(config, "ensemble", "n")
    matrix = sample_matrix(config.ensemble, config.n, config.master_seed)
    rows = matrix_to_csv_rows(matrix)
    text = write_csv(config.output_path, ["sub", "diag", "sup"], rows, config)
    if not config.output_path:
        sys.stdout.write(text)
    return 0


_DISPATCH = {
    "types": _cmd_types,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "clt": _cmd_clt,
    "cov": _cmd_cov,
    "mdp": _cmd_mdp,
    "cramer": _cmd_cramer,
    "dump-sample": _cmd_dump_sample,
}


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration; returns the process exit status."""
    handler = _DISPATCH.get(config.command)
    if handler is None:
        raise ConfigError(f"unknown command {config.command!r}")
    return handler(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritrace",
        description="trace statistics of tridiagonal random matrices")
    parser.add_argument("--version", action="version", version=f"tritrace {__version__}")
    # Every command takes the same flags: declare them once and share them.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override file keys")
    common.add_argument("--output", help="output file path")
    common.add_argument("--format", choices=("json", "csv"), dest="format")
    common.add_argument("--workers", help="worker processes or 'auto'")
    common.add_argument("--seed", dest="master_seed", type=int)
    common.add_argument("--k", type=int)
    common.add_argument("--k-list", dest="k_list")
    common.add_argument("--n", type=int)
    common.add_argument("--n-list", dest="n_list")
    common.add_argument("--trials", type=int)
    common.add_argument("--nu", type=float)
    common.add_argument("--delta-list", dest="delta_list")
    common.add_argument("--alpha", type=float)
    common.add_argument("--epsilon", type=float)
    common.add_argument("--replicas", type=int)
    common.add_argument("--tolerance", type=float)
    common.add_argument("--ensemble")
    common.add_argument("--beta", type=float)
    common.add_argument("--a-law", dest="a_law")
    common.add_argument("--d-law", dest="d_law")
    common.add_argument("--b-law", dest="b_law")
    common.add_argument("--kernel-law", dest="kernel_law")
    common.add_argument("--kernel-variant", dest="kernel_variant")
    common.add_argument("--symmetric")
    common.add_argument("--coupling")
    common.add_argument("--input")
    common.add_argument("--law")
    common.add_argument("--x-min", dest="x_min", type=float)
    common.add_argument("--x-max", dest="x_max", type=float)
    common.add_argument("--points", type=int)
    common.add_argument("--t-max", dest="t_max", type=float)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    # One run is one short process: freezing the import-time heap (numpy's,
    # mostly) spares every later collection, the one at exit included, and
    # forked workers from walking it.  Only cyclic garbage alive now is never freed.
    gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        return run(config)
    except TriTraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
