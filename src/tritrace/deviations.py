"""Moderate-deviation rate checks and the k=1 Cramér rate function.

For bounded i.i.d.-type entries the scaled centered trace satisfies a
quadratic deviation rate ``x^2 / (2 D_k)`` at speed ``n^nu``; this module
estimates tail probabilities by direct Monte Carlo and compares the implied
empirical rate with the prediction.  Direct tail counting is only feasible
while ``n^nu * rate`` stays below roughly ``log(trials)``, so estimates with
too few expected tail events are flagged rather than silently reported.

For k=1 the trace is a plain i.i.d. sum and the exact rate function is the
Legendre transform of the log moment generating function; it is computed
numerically (golden-section on the concave objective) from the law's
closed-form log-MGF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, EntryLaw
from .errors import DegenerateRateError, InvalidArgumentError
from .stats import _check_trace_run, _raw_traces, _require_iid, center_and_scale, dk_iid
# perfbench/layers.py times this module's calls by rebinding the names
# ``dk_iid`` and ``mc_traces`` here, so both must stay importable from it,
# though mdp_check now runs its traces through ``_raw_traces``.
from .stats import mc_traces  # noqa: F401

MIN_EXPECTED_TAIL_COUNT = 50.0
DEFAULT_RATE_TARGETS = (0.3, 0.5, 0.8, 1.2)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RateEstimate:
    """Empirical vs predicted deviation rate at one (n, delta)."""

    n: int
    nu: float
    delta: float
    tail_prob: float
    empirical_rate: float
    predicted_rate: float
    trials: int
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.tail_prob <= 1.0:
            raise InvalidArgumentError("tail probability outside [0, 1]")
        if self.tail_prob > 0 and self.empirical_rate < -1e-12:
            raise InvalidArgumentError("empirical rate must be nonnegative")


@dataclass(frozen=True)
class CramerRate:
    """Numerical rate function for the k=1 trace (an i.i.d. sum)."""

    grid: np.ndarray
    rate: np.ndarray
    warnings: tuple[str, ...] = ()


def derive_delta_list(dk: float, rate_targets=DEFAULT_RATE_TARGETS) -> tuple[float, ...]:
    """Thresholds whose predicted rates land on ``rate_targets``."""
    if dk <= 0:
        raise DegenerateRateError("cannot derive thresholds from a vanishing variance")
    return tuple(math.sqrt(2.0 * dk * r) for r in rate_targets)


def mdp_check(spec: EnsembleSpec, k: int, nu: float, n_list, delta_list,
              trials: int, master_seed: int, *, workers: int = 1,
              dk_replicas: int = 200_000) -> list[RateEstimate]:
    """Estimate deviation rates of ``sqrt(lambda_n / n) * (trace - mean)``.

    ``lambda_n = n ** -nu``.  For every (n, delta) pair the empirical rate
    ``-lambda_n * log P(|S| >= delta)`` is returned next to the predicted
    ``delta^2 / (2 D_k)``.  Estimates whose predicted tail mass would put
    fewer than ~50 events in ``trials`` draws carry a ``low-count`` flag;
    when no tail event occurs at all the empirical rate is infinite and the
    estimate is flagged ``empty-tail``.

    ``D_k`` is estimated (:func:`dk_iid`) beside the first size's traces:
    with ``workers > 1`` this process runs the estimate while forked children
    already evaluate trial blocks.  So a vanishing ``D_k`` raises
    :class:`DegenerateRateError` only after those traces; every argument
    check runs before any fork.
    """
    if not spec.bounded:
        raise InvalidArgumentError("deviation checks require a bounded spec")
    if not 0.0 < nu < 1.0:
        raise InvalidArgumentError("nu must lie in (0, 1)")
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if dk_replicas < 2:
        raise InvalidArgumentError("replicas must be >= 2")
    _require_iid(spec)
    n_list = tuple(n_list)
    if not n_list or min(n_list) < 2:
        raise InvalidArgumentError(f"matrix sizes must be >= 2, got n_list={n_list}")
    _check_trace_run(min(n_list), (k,), trials, workers)

    def estimate_dk():
        return dk_iid(spec, k, dk_replicas, master_seed)

    dk = None
    out: list[RateEstimate] = []
    for n in n_list:
        lam = float(n) ** (-nu)
        raw, estimate = _raw_traces(spec, n, (k,), trials, master_seed, workers,
                                    lead=estimate_dk if dk is None else None)
        if dk is None:
            dk = estimate
            if dk.value < 1e-12:
                raise DegenerateRateError(
                    f"limiting variance for power {k} is {dk.value:g}; rate is degenerate")
            deltas = (derive_delta_list(dk.value) if delta_list is None
                      else tuple(float(d) for d in delta_list))
        # centered raw traces: exponent 0 keeps them unscaled
        s = math.sqrt(lam / n) * center_and_scale(spec, n, (k,), raw, (0.0,))[:, 0]
        sd = math.sqrt(lam * dk.value)
        for delta in deltas:
            tail = float(np.mean(np.abs(s) >= delta)) if delta > 0 else 1.0
            predicted = delta ** 2 / (2.0 * dk.value)
            flags = []
            predicted_tail = math.erfc(delta / (sd * math.sqrt(2.0))) if delta > 0 else 1.0
            if predicted_tail * trials < MIN_EXPECTED_TAIL_COUNT:
                flags.append("low-count")
            if tail == 0.0:
                empirical = math.inf
                flags.append("empty-tail")
            else:
                empirical = -lam * math.log(tail)
            out.append(RateEstimate(n=int(n), nu=float(nu), delta=float(delta),
                                    tail_prob=tail, empirical_rate=empirical,
                                    predicted_rate=predicted, trials=int(trials),
                                    flags=tuple(flags)))
    return out


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Maximize a concave function on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    t = 0.5 * (a + b)
    return t, fun(t)


def cramer_rate_k1(entry_law: EntryLaw, x_grid, t_max: float = 50.0) -> CramerRate:
    """Rate function ``I(x) = sup_t (t x - log E exp(t d))`` for an i.i.d. sum.

    ``entry_law`` must have compact support.  Outside the closed support
    hull the rate is infinite (flagged, not an error).  If the supremum
    pushes against ``t_max`` while the objective still climbs, a precision
    warning is recorded.
    """
    if not entry_law.is_bounded:
        raise InvalidArgumentError("Cramér rate needs a compactly supported law")
    if t_max <= 0:
        raise InvalidArgumentError("t_max must be positive")
    lo, hi = entry_law.support
    if not math.isfinite(t_max * (hi - lo)):
        # the log-MGF at the widest tilt would overflow
        raise InvalidArgumentError(
            f"support [{lo:g}, {hi:g}] too wide for tilts up to t_max={t_max:g}")
    grid = np.asarray(x_grid, dtype=float)
    rate = np.empty_like(grid)
    warnings: list[str] = []
    slope_tol = 1e-7
    for idx, x in enumerate(grid):
        if x < lo or x > hi:
            rate[idx] = math.inf
            continue

        def objective(t: float, x=x) -> float:
            return t * x - entry_law.log_mgf(t)

        t_opt, val = _golden_max(objective, -t_max, t_max)
        rate[idx] = max(val, 0.0)
        if t_max - abs(t_opt) < 1e-6 * t_max:
            eps = 1e-6 * t_max
            edge = math.copysign(t_max, t_opt)
            slope = (objective(edge) - objective(edge - math.copysign(eps, t_opt))) \
                / math.copysign(eps, t_opt)
            if slope > slope_tol:
                warnings.append(
                    f"x={x:g}: supremum hit |t|={t_max:g} with positive slope; "
                    "rate is a lower bound")
    return CramerRate(grid=grid, rate=rate, warnings=tuple(warnings))
