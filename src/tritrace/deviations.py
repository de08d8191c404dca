"""Moderate-deviation rate checks and the k=1 Cramér rate function.

For bounded i.i.d.-type entries the scaled centered trace satisfies a
quadratic deviation rate ``x^2 / (2 D_k)`` at speed ``n^nu``; this module
estimates tail probabilities by direct Monte Carlo and compares the implied
empirical rate with the prediction.  Direct tail counting is only feasible
while ``n^nu * rate`` stays below roughly ``log(trials)``, so estimates with
too few expected tail events are flagged rather than silently reported.
:func:`rate_failures` is the moderate-deviation gate: it returns the
unflagged estimates off their prediction, so an empty result is a pass.

For k=1 the trace is a plain i.i.d. sum and the exact rate function is the
Legendre transform of the log moment generating function; it is computed
numerically (golden-section on the concave objective) from the law's
closed-form log-MGF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import K_MAX, checked_int, checked_real
from .ensembles import EnsembleSpec, EntryLaw, seed_int
from .errors import DegenerateRateError, InvalidArgumentError
from .stats import _check_trace_run, _raw_traces, _require_iid, center_and_scale, dk_iid
# perfbench/layers.py times this module's calls by rebinding the names
# ``dk_iid`` and ``mc_traces`` here, so both must stay importable from it,
# though mdp_check now runs its traces through ``_raw_traces``.
from .stats import mc_traces  # noqa: F401

MIN_EXPECTED_TAIL_COUNT = 50.0
# relative allowance of the rate gate (:func:`rate_failures`)
RATE_TOLERANCE = 0.25
DEFAULT_RATE_TARGETS = (0.3, 0.5, 0.8, 1.2)
# widest tilt |t| the k=1 Cramér rate searches (:func:`cramer_rate_k1`)
CRAMER_T_MAX = 50.0
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


def derive_delta_list(dk: float) -> tuple[float, ...]:
    """Thresholds whose predicted rates land on :data:`DEFAULT_RATE_TARGETS`."""
    if dk <= 0:
        raise DegenerateRateError("cannot derive thresholds from a vanishing variance")
    return tuple(math.sqrt(2.0 * dk * r) for r in DEFAULT_RATE_TARGETS)


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
    if not 0.0 < (nu := checked_real("nu", nu)) < 1.0:
        raise InvalidArgumentError("nu must lie in (0, 1)")
    k = checked_int("k", k, 1, K_MAX)
    dk_replicas = checked_int("dk_replicas", dk_replicas, 2)
    _require_iid(spec)
    n_list = tuple(checked_int("n", n, 2) for n in n_list)
    if not n_list:
        raise InvalidArgumentError("n_list must be non-empty")
    if delta_list is not None:
        delta_list = tuple(checked_real("delta_list entry", d) for d in delta_list)
        if not delta_list:
            # a table with no threshold compares nothing, so its gate would pass
            raise InvalidArgumentError("delta_list, when given, must be non-empty")
        if min(delta_list) < 0:
            raise InvalidArgumentError(f"thresholds must be >= 0, got delta_list={delta_list}")
    _, _, trials, workers = _check_trace_run(min(n_list), (k,), trials, workers)
    master_seed = seed_int(master_seed)

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
            deltas = derive_delta_list(dk.value) if delta_list is None else delta_list
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
            out.append(RateEstimate(n=n, nu=nu, delta=delta,
                                    tail_prob=tail, empirical_rate=empirical,
                                    predicted_rate=predicted, trials=trials,
                                    flags=tuple(flags)))
    return out


def rate_failures(estimates, tolerance: float = RATE_TOLERANCE) -> list[RateEstimate]:
    """The unflagged estimates with a non-zero prediction whose empirical rate
    is off it by more than ``tolerance`` times the prediction; an empty list
    passes the moderate-deviation gate.  A flagged estimate has too few tail
    events to judge."""
    if (tolerance := checked_real("tolerance", tolerance)) < 0:
        raise InvalidArgumentError(f"tolerance must be >= 0, got {tolerance}")
    return [e for e in estimates
            if not e.flags and e.predicted_rate != 0
            and abs(e.empirical_rate - e.predicted_rate) > tolerance * e.predicted_rate]


def _golden_max(fun, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a concave function on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-12 * (1.0 + abs(a) + abs(b)):
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


def cramer_rate_k1(entry_law: EntryLaw, x_grid, t_max: float = CRAMER_T_MAX) -> CramerRate:
    """Rate function ``I(x) = sup_t (t x - log E exp(t d))`` for an i.i.d. sum.

    ``entry_law`` must have compact support and each grid point a finite real.
    Outside the closed support hull the rate is infinite (flagged, not an
    error).  If the supremum pushes against ``t_max`` while the objective
    still climbs, a precision warning is recorded.
    """
    if not entry_law.is_bounded:
        raise InvalidArgumentError("Cramér rate needs a compactly supported law")
    if (t_max := checked_real("t_max", t_max)) <= 0:
        raise InvalidArgumentError("t_max must be positive")
    lo, hi = entry_law.support
    if not math.isfinite(t_max * (hi - lo)):
        # the log-MGF at the widest tilt would overflow
        raise InvalidArgumentError(
            f"support [{lo:g}, {hi:g}] too wide for tilts up to t_max={t_max:g}")
    grid = np.array([checked_real("x_grid entry", x) for x in x_grid], dtype=float)
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
            # outward slope: positive while the objective still climbs past the edge
            slope = (objective(edge) - objective(edge - math.copysign(eps, t_opt))) / eps
            if slope > slope_tol:
                warnings.append(
                    f"x={x:g}: supremum hit |t|={t_max:g} while the objective still "
                    "climbs outward; rate is a lower bound")
    return CramerRate(grid=grid, rate=rate, warnings=tuple(warnings))
