"""Batch front-end: parse a run configuration, dispatch experiments, emit files.

Configuration is flat key=value text with one section per concern
(``[run]``, ``[ensemble]``, and one section per command); command-line flags
override file keys.  Each setting is declared once, in ``_SETTINGS``, and a
key or section that names no setting is an error.  Every output file embeds
the resolved configuration and the artifact version.  The worker count is
deliberately excluded from the embedded configuration: scheduling never
changes results, and output bytes must not depend on it.

Exit status: 0 on success, 2 when a statistical gate's verdict
(``stats.ks_failures``, ``stats.covariance_failures``,
``deviations.rate_failures``) or the trace command's route agreement failed,
1 on any error, usage errors included.
"""

from __future__ import annotations

import argparse
import csv
import gc
import inspect
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .circuits import (
    TridiagonalMatrix,
    checked_int,
    enumerate_types,
    trace_power_direct,
    trace_power_expansion,
    types_as_json_lines,
)
from .deviations import (CRAMER_T_MAX, RATE_TOLERANCE, RateEstimate, cramer_rate_k1,
                         mdp_check, rate_failures)
from .ensembles import EnsembleSpec, EntryLaw, sample_matrix
from .errors import ConfigError, InvalidArgumentError, TriTraceError
from .stats import (
    COV_TOLERANCE,
    MIN_REPORT_TRIALS,
    covariance_failures,
    covariance_target,
    growth_exponents,
    ks_failures,
    mc_traces,
    normality_report,
    sample_covariance,
)

DEFAULT_SEED = 0x5EED
TRACE_REL_TOL = 1e-9


@dataclass
class RunConfig:
    """Resolved settings for one command invocation.

    ``settings`` holds each setting given by a flag or a config key, parsed,
    under its config key; ``workers`` is kept apart, since it never changes
    a result and so is left out of the provenance block.
    """

    command: str
    ensemble: EnsembleSpec | None
    workers: int
    settings: dict

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


def _parse_float(text, least: float = -math.inf) -> float:
    value = float(text)
    if not least <= value < math.inf:
        raise ValueError(f"not a finite float >= {least}: {text!r}")
    return value


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
    _Setting("--nu", "nu", _parse_float),
    _Setting("--delta-list", "delta_list", _parse_list(_parse_float)),
    _Setting("--alpha", "alpha", _parse_float),
    _Setting("--epsilon", "epsilon", _parse_float),
    _Setting("--replicas", "replicas", int),
    _Setting("--tolerance", "tolerance", lambda text: _parse_float(text, 0.0)),
    _Setting("--input", "input", str),
    _Setting("--law", "law", str),
    _Setting("--x-min", "x_min", _parse_float),
    _Setting("--x-max", "x_max", _parse_float),
    _Setting("--points", "points", int),
    _Setting("--t-max", "t_max", _parse_float),
    _Setting("--ensemble", "model", lambda text: text.strip().lower().replace("-", "_"),
             "ensemble"),
    _Setting("--beta", "beta", _parse_float, "ensemble"),
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


def spec_from_mapping(m: dict) -> EnsembleSpec:
    """Build an :class:`EnsembleSpec` from the text of ``[ensemble]`` keys;
    the model's record in ``ensembles._MODELS`` says which keys it reads."""
    v = _parse(m, "ensemble")
    model = v.pop("model", None)
    if not model:
        raise ConfigError("ensemble model missing")
    return EnsembleSpec(model, **v)


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
    unread = sorted(given - _COMMON_KEYS - {p.name for p in _reads(args.command)})
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
        unused = row[3:] + (row[:1] if idx == 0 else [])   # must be blank: past sup, row 1's sub
        if len(row) < 2 or any(cell.strip() for cell in unused):
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
#
# A handler's parameters after ``config`` are the settings its command reads,
# ``ensemble`` standing for ``[ensemble]``; one without a default must be
# given.  ``run`` passes each given setting by name, so a default applies
# only to a setting left out and the provenance block records only given ones.


def _cmd_types(config: RunConfig, k) -> int:
    types = enumerate_types(k)
    print(f"power {k}: {len(types)} circuit types")
    print(f"{'l':>3} {'m':>18} {'n':>22} {'count':>8}")
    for t in types:
        print(f"{t.span:>3} {str(list(t.half_edges)):>18} {str(list(t.loops)):>22} {t.count:>8}")
    if path := config.get("output"):
        Path(path).write_text(types_as_json_lines(types), encoding="utf-8")
    return 0


def _cmd_trace(config: RunConfig, k, input=None, ensemble=None, n=None) -> int:
    if input is not None:
        if ensemble is not None or n is not None:
            raise ConfigError("trace: input excludes an ensemble and n")
        matrix = matrix_from_csv(input)
    else:
        if ensemble is None or n is None:
            raise ConfigError("trace: need --input or an ensemble and n")
        matrix = sample_matrix(ensemble, n, config.master_seed)
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


def _emit(config: RunConfig, text: str) -> None:
    """Standard output receives what no ``--output`` file did."""
    if not config.get("output"):
        sys.stdout.write(text)


def _cmd_simulate(config: RunConfig, ensemble, k_list, n, trials, alpha=None,
                  epsilon=None) -> int:
    samples = mc_traces(ensemble, n, k_list, trials, config.master_seed, alpha, epsilon,
                        workers=config.workers)
    header = ["trial"] + [f"k{k}" for k in k_list]
    rows = ([str(t)] + [_fmt(v) for v in samples[t]] for t in range(samples.shape[0]))
    _emit(config, write_csv(config.get("output"), header, rows, config))
    return 0


def _clt_target(config: RunConfig, spec: EnsembleSpec, k_list, replicas: int):
    if spec.model == "beta_hermite":
        if "replicas" in config.settings:   # the closed form draws no replicas
            raise ConfigError(
                f"{config.command} does not read replicas for a beta_hermite ensemble")
        return covariance_target(k_list, "beta_hermite", beta=spec.beta)
    return covariance_target(k_list, "iid_mc", spec=spec, replicas=replicas,
                             seed=config.master_seed + 1)


def _cmd_clt(config: RunConfig, ensemble, k_list, n, trials, alpha=None, epsilon=None,
             replicas=100_000) -> int:
    if trials < MIN_REPORT_TRIALS:   # before any draw
        raise InvalidArgumentError(
            f"distributional statistics need at least {MIN_REPORT_TRIALS} trials")
    target = _clt_target(config, ensemble, k_list, replicas)   # its own seed: order-free
    samples = mc_traces(ensemble, n, k_list, trials, config.master_seed, alpha, epsilon,
                        workers=config.workers)
    exponents = growth_exponents(ensemble, k_list, alpha, epsilon)
    report = normality_report(samples, target, k_list=k_list, n=n,
                              scaling_exponents=exponents)
    results = {
        "report": report.to_json_dict(),
        "target": {"source": target.source, "value": target.value.tolist()},
    }
    _emit(config, write_json(config.get("output"), results, config))
    exceeded = ks_failures(report)
    if exceeded:
        print(f"KS distance above 1% critical value for powers {exceeded}", file=sys.stderr)
        return 2
    return 0


def _cmd_cov(config: RunConfig, ensemble, k_list, n, trials, alpha=None, epsilon=None,
             replicas=100_000, tolerance=COV_TOLERANCE) -> int:
    target = _clt_target(config, ensemble, k_list, replicas)   # its own seed: order-free
    samples = mc_traces(ensemble, n, k_list, trials, config.master_seed, alpha, epsilon,
                        workers=config.workers)
    emp, se = sample_covariance(samples)
    ok = not covariance_failures(k_list, emp, se, target.value, tolerance)
    results = {
        "k_list": list(k_list),
        "target": {"source": target.source, "value": target.value.tolist()},
        "empirical": emp.tolist(),
        "standard_errors": se.tolist(),
        "tolerance": tolerance,
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


def _cmd_mdp(config: RunConfig, ensemble, k, nu, trials, n=None, n_list=None,
             delta_list=None, tolerance=RATE_TOLERANCE) -> int:
    if n is not None and n_list is not None:
        raise ConfigError("mdp: n and n_list exclude each other")
    if n is None and n_list is None:
        raise ConfigError("mdp: missing n or n_list")
    estimates = mdp_check(ensemble, k, nu, (n,) if n_list is None else n_list, delta_list,
                          trials, config.master_seed, workers=config.workers)
    header = [f.name for f in fields(RateEstimate)]   # one column per field, flags last
    rows = [[getattr(e, name) for name in header[:-1]] + [";".join(e.flags)]
            for e in estimates]
    _emit(config, write_csv(config.get("output"), header, rows, config))
    bad = rate_failures(estimates, tolerance)
    if bad:
        print(f"{len(bad)} rate estimates deviate beyond relative tolerance {tolerance!r}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_cramer(config: RunConfig, law, x_min=None, x_max=None, points=101,
                t_max=CRAMER_T_MAX) -> int:
    law = EntryLaw.parse(law)
    if law.support is None:
        raise ConfigError("cramer: entry law must have compact support")
    lo, hi = law.support
    points = checked_int("cramer: points", points, 1)
    grid = np.linspace(lo if x_min is None else x_min, hi if x_max is None else x_max, points)
    result = cramer_rate_k1(law, grid, t_max=t_max)
    rows = [[_fmt(x), _fmt(i)] for x, i in zip(result.grid, result.rate)]
    _emit(config, write_csv(config.get("output"), ["x", "rate"], rows, config))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_dump_sample(config: RunConfig, ensemble, n) -> int:
    matrix = sample_matrix(ensemble, n, config.master_seed)
    rows = matrix_to_csv_rows(matrix)
    _emit(config, write_csv(config.get("output"), ["sub", "diag", "sup"], rows, config))
    return 0


# The one table of commands.  Every command also takes ``output``, ``workers``
# (never recorded) and ``master_seed`` (recorded by every command, given or
# not).  Any other setting its handler does not name is an error: a value
# nothing reads would still sit in the provenance block as if it had shaped
# the run.
_COMMON_KEYS = {"output", "workers", "master_seed"}
_COMMANDS = {
    "types": _cmd_types,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "clt": _cmd_clt,
    "cov": _cmd_cov,
    "mdp": _cmd_mdp,
    "cramer": _cmd_cramer,
    "dump-sample": _cmd_dump_sample,
}
COMMANDS = tuple(_COMMANDS)


def _reads(command: str) -> list[inspect.Parameter]:
    """The settings ``command`` reads: its handler's parameters after ``config``."""
    return list(inspect.signature(_COMMANDS[command]).parameters.values())[1:]


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    given = {"ensemble": config.ensemble, **config.settings}
    params = _reads(config.command)
    values = {p.name: given[p.name] for p in params if given.get(p.name) is not None}
    missing = [p.name for p in params if p.default is p.empty and p.name not in values]
    if missing:
        raise ConfigError(f"{config.command}: missing required keys {missing}")
    return _COMMANDS[config.command](config, **values)


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
