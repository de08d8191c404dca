"""Batch front-end: parse a run configuration, dispatch experiments, emit files.

Configuration is flat key=value text with one section per concern
(``[run]``, ``[ensemble]``, and one section per command); command-line flags
override file keys.  Each setting is declared once, in ``_SETTINGS``, and a
key or section that names no setting is an error.  Every output file embeds
the resolved configuration and the artifact version.  The worker count is
deliberately excluded from the embedded configuration: scheduling never
changes results, and output bytes must not depend on it.

Exit status: 0 on success, 2 when a statistical acceptance threshold was
exceeded, 1 on any error, usage errors included.
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
from typing import Callable, NamedTuple

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
    """Resolved settings for one command invocation.

    ``settings`` holds each setting given by a flag or a config key, parsed,
    under its config key; ``workers`` is kept apart, since it never changes
    a result and so is left out of the provenance block.
    """

    command: str
    ensemble: EnsembleSpec | None = None
    workers: int = 1
    settings: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.settings.get(key, default)

    @property
    def master_seed(self) -> int:
        return self.settings.get("master_seed", DEFAULT_SEED)

    def describe(self) -> dict:
        """Deterministic provenance mapping (workers excluded by design)."""
        out = {"command": self.command, "master_seed": self.master_seed}
        if self.ensemble is not None:
            for key, val in self.ensemble.describe().items():
                out[f"ensemble.{key}"] = val
        for key, val in self.settings.items():
            out[_SETTINGS[key].record or key] = list(val) if isinstance(val, tuple) else val
        return out


# ---------------------------------------------------------------------------
# Run settings


def _parse_list(conv):
    """Parser of a comma-separated list of ``conv`` values."""
    return lambda text: tuple(conv(tok) for tok in text.replace(" ", "").split(",") if tok)


def _parse_bool(text) -> bool:
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_workers(text: str) -> int:
    if text.strip().lower() == "auto":
        # the CPUs this process may run on, which a cpuset or taskset narrows
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    workers = int(text)
    if workers < 1:
        raise ConfigError("workers must be >= 1 or 'auto'")
    return workers


class _Setting(NamedTuple):
    flag: str
    key: str                 # config key, and the flag's argparse dest
    parse: Callable          # the value's text -> value
    section: str = "run"     # "run" settings may also sit in the command's section
    record: str | None = None   # provenance key, where it is not ``key``


# The one list of run settings: it declares the shared flags, names the keys a
# config file may hold, parses every value and fills the provenance block.
_SETTINGS = {s.key: s for s in (
    _Setting("--output", "output", str, record="output_path"),
    _Setting("--workers", "workers", _parse_workers),
    _Setting("--seed", "master_seed", int),
    _Setting("--k", "k", int),
    _Setting("--k-list", "k_list", _parse_list(int)),
    _Setting("--n", "n", int),
    _Setting("--n-list", "n_list", _parse_list(int)),
    _Setting("--trials", "trials", int),
    _Setting("--nu", "nu", float),
    _Setting("--delta-list", "delta_list", _parse_list(float)),
    _Setting("--alpha", "alpha", float),
    _Setting("--epsilon", "epsilon", float),
    _Setting("--replicas", "replicas", int),
    _Setting("--tolerance", "tolerance", float),
    _Setting("--input", "input", str),
    _Setting("--law", "law", str),
    _Setting("--x-min", "x_min", float),
    _Setting("--x-max", "x_max", float),
    _Setting("--points", "points", int),
    _Setting("--t-max", "t_max", float),
    _Setting("--ensemble", "model", lambda text: text.strip().lower().replace("-", "_"),
             "ensemble"),
    _Setting("--beta", "beta", float, "ensemble"),
    _Setting("--a-law", "a_law", EntryLaw.parse, "ensemble"),
    _Setting("--d-law", "d_law", EntryLaw.parse, "ensemble"),
    _Setting("--b-law", "b_law", EntryLaw.parse, "ensemble"),
    _Setting("--kernel-law", "kernel_law", EntryLaw.parse, "ensemble"),
    _Setting("--kernel-variant", "kernel_variant", str, "ensemble"),
    _Setting("--symmetric", "symmetric", _parse_bool, "ensemble"),
)}


def _convert(key: str, conv, value):
    """``conv(value)``, with a malformed value reported as a :class:`ConfigError`;
    a typed error of ``conv`` keeps its own message."""
    try:
        return conv(value)
    except TriTraceError:
        raise
    except ValueError as exc:
        raise ConfigError(f"malformed value for {key}: {value!r}") from exc


def _setting(key: str, section: str, where: str) -> _Setting:
    setting = _SETTINGS.get(key)
    if setting is None or setting.section != section:
        raise ConfigError(f"unknown config key {key!r} in [{where}]")
    return setting


def _parse(text: dict, section: str) -> dict:
    """The values of ``section`` settings, from their text."""
    return {key: _convert(key, _setting(key, section, section).parse, value)
            for key, value in text.items()}


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
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if not sections:
        raise ConfigError(f"config file {path!r} is empty (no sections)")
    for name, keys in sections.items():
        if name not in ("run", "ensemble") and name.replace("_", "-") not in COMMANDS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in keys:
            _setting(key, "ensemble" if name == "ensemble" else "run", name)
    return sections


# The ``[ensemble]`` keys each model reads besides ``model``.  Any other key
# is an error: a value nothing reads would still sit in the provenance block
# as if it had shaped the run.
_MODEL_KEYS = {
    "anderson": {"d_law"},
    "beta_hermite": {"beta"},
    "hatano_nelson": {"a_law", "d_law", "b_law"},
    "birth_death_kernel": {"kernel_law", "kernel_variant"},
    "birth_death_q": {"a_law", "b_law", "symmetric"},
    "generic_iid": {"a_law", "d_law", "b_law", "symmetric"},
}


# The settings each command reads, ``ensemble`` standing for the whole
# ``[ensemble]`` section.  Every command also takes ``output``, ``workers``
# (never recorded) and ``master_seed`` (recorded by every command, given or
# not).  Any other setting is an error, as in ``_MODEL_KEYS``.
_COMMON_KEYS = {"output", "workers", "master_seed"}
_COMMAND_KEYS = {
    "types": {"k", "k_list"},
    "trace": {"k", "k_list", "input", "ensemble", "n"},
    "simulate": {"ensemble", "k_list", "n", "trials", "alpha", "epsilon"},
    "clt": {"ensemble", "k_list", "n", "trials", "alpha", "epsilon", "replicas"},
    "cov": {"ensemble", "k_list", "n", "trials", "alpha", "epsilon", "replicas", "tolerance"},
    "mdp": {"ensemble", "k", "k_list", "n", "n_list", "trials", "nu", "delta_list",
            "tolerance"},
    "cramer": {"law", "x_min", "x_max", "points", "t_max"},
    "dump-sample": {"ensemble", "n"},
}


def spec_from_mapping(m: dict) -> EnsembleSpec:
    """Build an :class:`EnsembleSpec` from the text of ``[ensemble]`` keys."""
    v = _parse(m, "ensemble")
    model = v.pop("model", None)
    if not model:
        raise ConfigError("ensemble model missing")
    if model not in _MODEL_KEYS:
        raise ConfigError(f"unknown ensemble model {model!r}")
    unread = sorted(v.keys() - _MODEL_KEYS[model])
    if v.get("symmetric") and "b_law" in v:
        unread.append("b_law")   # a symmetric matrix's b is its a
    if unread:
        raise ConfigError(f"ensemble model {model} does not read {', '.join(unread)}")
    if model == "anderson":
        return EnsembleSpec.anderson(d_law=v.get("d_law"))
    if model == "beta_hermite":
        if "beta" not in v:
            raise ConfigError("beta_hermite requires a beta key")
        return EnsembleSpec.beta_hermite(v["beta"])
    if model == "hatano_nelson":
        return EnsembleSpec.hatano_nelson(a_law=v.get("a_law"), d_law=v.get("d_law"),
                                          b_law=v.get("b_law"))
    if model == "birth_death_kernel":
        return EnsembleSpec.birth_death_kernel(law=v.get("kernel_law"),
                                               variant=v.get("kernel_variant", "v"))
    if model == "birth_death_q":
        return EnsembleSpec.birth_death_q(a_law=v.get("a_law"), b_law=v.get("b_law"),
                                          symmetric=v.get("symmetric", False))
    if v.get("a_law") is None or v.get("d_law") is None:   # generic_iid
        raise ConfigError("generic_iid requires a_law and d_law")
    return EnsembleSpec.generic_iid(a_law=v["a_law"], d_law=v["d_law"], b_law=v.get("b_law"),
                                    symmetric=v.get("symmetric", False))


def build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve one command's settings: flags override the command's own config
    section, which overrides ``[run]``; ``[ensemble]`` describes the ensemble."""
    sections = _read_config_file(args.config) if args.config else {}
    text = {**sections.get("run", {}), **sections.get(args.command.replace("-", "_"), {})}
    ens_text = dict(sections.get("ensemble", {}))
    for key, setting in _SETTINGS.items():
        value = getattr(args, key)
        if value is not None:
            (ens_text if setting.section == "ensemble" else text)[key] = value
    settings = _parse(text, "run")
    workers = settings.pop("workers", None)
    if workers is None:
        workers = _convert("workers", _parse_workers, os.environ.get("TRITRACE_WORKERS", "1"))
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"workers = {workers} needs os.fork, which this platform lacks")
    spec = spec_from_mapping(ens_text) if ens_text else None
    given = settings.keys() | ({"ensemble"} if spec else set())
    unread = sorted(given - _COMMON_KEYS - _COMMAND_KEYS[args.command])
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
    return RunConfig(command=args.command, ensemble=spec, workers=workers, settings=settings)


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


def _require(config: RunConfig, *keys: str) -> list:
    """The values of ``keys`` (``ensemble`` or settings), none of them missing."""
    given = {"ensemble": config.ensemble, **config.settings}
    missing = [key for key in keys if given.get(key) is None]
    if missing:
        raise ConfigError(f"{config.command}: missing required keys {missing}")
    return [given[key] for key in keys]


def _first_given(config: RunConfig, what: str, *values):
    """The first of ``values`` that is not None, so that an explicit 0 reaches
    validation instead of falling back to the next option."""
    for value in values:
        if value is not None:
            return value
    raise ConfigError(f"{config.command}: missing {what}")


def _power(config: RunConfig) -> int:
    """``--k``, else the first power of ``--k-list``."""
    k_list = config.get("k_list")
    return int(_first_given(config, "k", config.get("k"), k_list[0] if k_list else None))


def _cmd_types(config: RunConfig) -> int:
    k = _power(config)
    types = enumerate_types(k)
    print(f"power {k}: {len(types)} circuit types")
    print(f"{'l':>3} {'m':>18} {'n':>22} {'count':>8}")
    for t in types:
        print(f"{t.span:>3} {str(list(t.half_edges)):>18} {str(list(t.loops)):>22} {t.count:>8}")
    if path := config.get("output"):
        Path(path).write_text(types_as_json_lines(types), encoding="utf-8")
    return 0


def _cmd_trace(config: RunConfig) -> int:
    k = _power(config)
    if path := config.get("input"):
        matrix = matrix_from_csv(path)
    else:
        if config.ensemble is None or config.get("n") is None:
            raise ConfigError("trace: need --input or an ensemble and n")
        matrix = sample_matrix(config.ensemble, config.get("n"), config.master_seed)
    expansion = trace_power_expansion(matrix, k, enumerate_types(k))
    direct = trace_power_direct(matrix, k)
    diff = abs(expansion - direct)
    rel = diff / (1.0 + abs(direct))
    print(f"expansion: {_fmt(expansion)}")
    print(f"direct:    {_fmt(direct)}")
    print(f"difference: {_fmt(diff)} (relative {_fmt(rel)})")
    if path := config.get("output"):
        write_json(path,
                   {"k": k, "n": matrix.n, "expansion": expansion, "direct": direct,
                    "difference": diff, "relative_difference": rel}, config)
    return 0 if rel <= TRACE_REL_TOL else 2


def _samples(config: RunConfig):
    """Monte Carlo traces of ``simulate``, ``clt`` and ``cov``: (k_list, samples)."""
    spec, k_list, n, trials = _require(config, "ensemble", "k_list", "n", "trials")
    return k_list, mc_traces(spec, n, k_list, trials, config.master_seed, config.get("alpha"),
                             config.get("epsilon"), workers=config.workers)


def _emit(config: RunConfig, text: str) -> None:
    """Standard output receives what no ``--output`` file did."""
    if not config.get("output"):
        sys.stdout.write(text)


def _cmd_simulate(config: RunConfig) -> int:
    k_list, samples = _samples(config)
    header = ["trial"] + [f"k{k}" for k in k_list]
    rows = ([str(t)] + [_fmt(v) for v in samples[t]] for t in range(samples.shape[0]))
    _emit(config, write_csv(config.get("output"), header, rows, config))
    return 0


def _clt_target(config: RunConfig):
    spec, k_list = config.ensemble, config.get("k_list")
    if spec.model == "beta_hermite":
        return covariance_target(k_list, "beta_hermite", beta=spec.beta)
    return covariance_target(k_list, "iid_mc", spec=spec,
                             replicas=config.get("replicas", 100_000),
                             seed=config.master_seed + 1)


def _cmd_clt(config: RunConfig) -> int:
    k_list, samples = _samples(config)
    target = _clt_target(config)
    exponents = growth_exponents(config.ensemble, k_list, config.get("alpha"),
                                 config.get("epsilon"))
    report = normality_report(samples, target, k_list=k_list, n=config.get("n"),
                              scaling_exponents=exponents)
    results = {
        "report": report.to_json_dict(),
        "target": {"source": target.source, "value": target.value.tolist()},
    }
    _emit(config, write_json(config.get("output"), results, config))
    exceeded = [k for k, d in zip(k_list, report.ks_distance)
                if d > report.ks_critical_1pct]
    if exceeded:
        print(f"KS distance above 1% critical value for powers {exceeded}", file=sys.stderr)
        return 2
    return 0


def _cmd_cov(config: RunConfig) -> int:
    k_list, samples = _samples(config)
    target = _clt_target(config)
    emp, se = sample_covariance(samples)
    tol = config.get("tolerance", 0.10)
    k_arr = np.array(k_list)
    mixed = (k_arr[:, None] % 2) != (k_arr[None, :] % 2)
    dev = np.abs(emp - target.value)
    allowed = np.where(mixed, 4.0 * se, np.maximum(tol * np.abs(target.value), 4.0 * se))
    ok = bool(np.all(dev <= allowed))
    results = {
        "k_list": list(k_list),
        "target": {"source": target.source, "value": target.value.tolist()},
        "empirical": emp.tolist(),
        "standard_errors": se.tolist(),
        "tolerance": tol,
        "within_tolerance": ok,
    }
    write_json(config.get("output"), results, config)
    print("target:")
    print(np.array2string(target.value, precision=6))
    print("empirical:")
    print(np.array2string(emp, precision=6))
    if not ok:
        print("covariance deviates beyond tolerance", file=sys.stderr)
        return 2
    return 0


def _cmd_mdp(config: RunConfig) -> int:
    spec, nu, trials = _require(config, "ensemble", "nu", "trials")
    k = _power(config)
    n = config.get("n")
    n_list = _first_given(config, "n or n_list", config.get("n_list"),
                          None if n is None else (n,))
    estimates = mdp_check(spec, k, nu, n_list, config.get("delta_list"), trials,
                          config.master_seed, workers=config.workers)
    header = ["n", "nu", "delta", "tail_prob", "empirical_rate", "predicted_rate",
              "trials", "flags"]
    rows = [[_fmt(e.n), _fmt(e.nu), _fmt(e.delta), _fmt(e.tail_prob),
             _fmt(e.empirical_rate), _fmt(e.predicted_rate), str(e.trials),
             ";".join(e.flags)] for e in estimates]
    _emit(config, write_csv(config.get("output"), header, rows, config))
    tol = config.get("tolerance", 0.25)
    bad = [e for e in estimates
           if not e.flags and not math.isclose(e.predicted_rate, 0.0)
           and abs(e.empirical_rate - e.predicted_rate) > tol * e.predicted_rate]
    if bad:
        print(f"{len(bad)} rate estimates deviate beyond {tol:.0%}", file=sys.stderr)
        return 2
    return 0


def _cmd_cramer(config: RunConfig) -> int:
    law_text = config.get("law")
    if not law_text:
        raise ConfigError("cramer: missing entry law")
    law = EntryLaw.parse(law_text)
    if law.support is None:
        raise ConfigError("cramer: entry law must have compact support")
    lo, hi = law.support
    points = config.get("points", 101)
    if points < 1:
        raise ConfigError(f"cramer: points must be >= 1, got {points}")
    grid = np.linspace(config.get("x_min", lo), config.get("x_max", hi), points)
    result = cramer_rate_k1(law, grid, t_max=config.get("t_max", 50.0))
    rows = [[_fmt(x), _fmt(i)] for x, i in zip(result.grid, result.rate)]
    _emit(config, write_csv(config.get("output"), ["x", "rate"], rows, config))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_dump_sample(config: RunConfig) -> int:
    spec, n = _require(config, "ensemble", "n")
    matrix = sample_matrix(spec, n, config.master_seed)
    rows = matrix_to_csv_rows(matrix)
    _emit(config, write_csv(config.get("output"), ["sub", "diag", "sup"], rows, config))
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


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on every other error: 2 is kept for a
    statistical threshold exceeded."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tritrace",
                     description="trace statistics of tridiagonal random matrices")
    parser.add_argument("--version", action="version", version=f"tritrace {__version__}")
    # Every command takes the same flags: declare them once and share them.
    # Values stay text here; build_config parses them as it parses a file's.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override file keys")
    for setting in _SETTINGS.values():
        common.add_argument(setting.flag, dest=setting.key)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    # One run is one short process: freezing the import-time heap (numpy's,
    # mostly) spares every later collection, the one at exit included, and
    # forked workers from walking it.  Only cyclic garbage alive now is never freed.
    gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        return run(build_config(args))
    except TriTraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
