"""Site summands, trace Monte Carlo, limiting variances and normality checks.

The trace of the k-th power differs from the sum of per-site summands
``X_{k,i}`` only by a right-boundary correction that stays O(1) in the
dimension, so centered traces fluctuate like sums of finite-range-dependent
variables.  This module evaluates the summands, runs reproducible Monte
Carlo over scaled centered traces, estimates the limiting variance and
covariance targets, and reports moment / Kolmogorov-Smirnov diagnostics
against the Gaussian limit.  Two of the acceptance gates sit here beside
the numbers they judge: :func:`ks_failures` (Gaussian fluctuation) and
:func:`covariance_failures` (limiting covariance); each returns what fails,
so an empty result is a pass.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, fields

import numpy as np

from .circuits import (K_MAX, RowTracer, checked_int, checked_real, class_product,
                       enumerate_types, slot_powers)
from .ensembles import (
    MAX_TRIALS,
    EnsembleSpec,
    counts_diagonal_signs,
    diagonal_sign_sums,
    sample_matrix_chunks,
    sample_window_arrays,
    seed_int,
)
from .errors import DegenerateTargetError, InvalidArgumentError, TriTraceError

TRIAL_BLOCK = 1024
# Entries per diagonal in one chunk of trials sampled and evaluated together,
# so a chunk's arrays stay near 128 KiB at every n.  Measured over 2^12 ..
# 2^16 on 2 vCPU, 2^14 matched or beat trial-by-trial evaluation in every
# case tried (Anderson k=1 at n = 400 and 10^4, k = 1, 3 at n = 4000 within
# 1%; beta-Hermite n=1000, k = 4, 8, 12; Hatano-Nelson n=1000, k = 1..6).
# In a fresh beta-Hermite process, where page faults on newly grown heap
# memory cost the most, it also beat 2^13 and 2^15.
CHUNK_ENTRIES = 1 << 14

# relative part of the covariance gate's allowance (:func:`covariance_failures`)
COV_TOLERANCE = 0.10
# fewest trials whose distributional statistics :func:`normality_report` reports
MIN_REPORT_TRIALS = 100

COVARIANCE_SOURCES = ("iid_window_formula", "symmetric_degenerate_formula",
                      "beta_hermite_formula")


@dataclass(frozen=True)
class DependenceRange:
    """Index gap ``m_k`` beyond which site summands of one power are independent."""

    m_k: int


def dependence_range(k: int, symmetric: bool) -> DependenceRange:
    """``k // 2``, plus one for a symmetric spec."""
    return DependenceRange(checked_int("k", k, 1) // 2 + (1 if symmetric else 0))


# ---------------------------------------------------------------------------
# Site summands


def _summand_block(a: np.ndarray, d: np.ndarray, b: np.ndarray, width: int,
                   k: int) -> np.ndarray:
    """Summands ``X_k`` of the first ``width`` sites of batched windows (slot
    arrays of :func:`sample_window_arrays`): (replicas, width).

    At k=1 the one class, of count 1, is the diagonal entry itself: the
    result is a view of ``d`` that must not be written, and no edge product
    is formed."""
    if width + k // 2 > d.shape[1]:
        raise InvalidArgumentError("window too short for requested site")
    if k == 1:
        return d[:, :width]
    # for windows from site f, ab[:, t] = a_{f+t} * b_{f+t} (the a-slot of
    # site s holds a_{s-1})
    pows = slot_powers(a[:, 1:] * b[:, :-1], d, k)
    out = np.zeros((d.shape[0], width))
    for t in enumerate_types(k):
        out += t.count * class_product(pows, t, width)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo over traces


def exact_trace_mean(spec: EnsembleSpec, k: int) -> float | None:
    """Closed-form E trace(Q^k) where available, else None.

    Fixed off-diagonals with independent symmetric zero-mean diagonal entries
    make every odd-power summand mean vanish.
    """
    if spec.model == "anderson" and k % 2 == 1 and spec.d_law.symmetric_zero_mean:
        return 0.0
    return None


def _trace_block(spec: EnsembleSpec, n: int, tracer: RowTracer, master_seed: int,
                 lo: int, hi: int) -> np.ndarray:
    """Raw traces of trials ``lo .. hi-1`` at the powers ``tracer.k_list``,
    sampled and evaluated in row chunks.  ``tracer`` serves every block its
    process evaluates, so the workspaces of both trace routes are allocated
    once per run and process, not once per block.

    The route follows from the spec and ``k_list``, never from the run's
    size.  When every power is 1 and the diagonal is a Rademacher stream of
    its own (:func:`counts_diagonal_signs`), the traces are counts of sign
    bits (:func:`diagonal_sign_sums`) and no row is built; they have the
    bits a :class:`RowTracer` gives, whose compensated sum of ``+-1``
    entries is exact.
    """
    rows, k_list = max(1, CHUNK_ENTRIES // n), tracer.k_list
    if set(k_list) == {1} and counts_diagonal_signs(spec):
        sums = diagonal_sign_sums(spec, n, master_seed, range(lo, hi), rows)
        return np.repeat(sums[:, None], len(k_list), axis=1)
    out = np.empty((hi - lo, len(k_list)))
    for chunk, sub, diag, sup in sample_matrix_chunks(spec, n, master_seed, range(lo, hi), rows):
        out[chunk.start - lo:chunk.stop - lo] = tracer(sub, diag, sup)
    return out


def _fork(job):
    """Run ``job()`` in a forked child; returns its pid and the read end of its pipe.

    The child writes one pickle to the pipe, ``(True, result)`` or
    ``(False, exception)``, and leaves through ``os._exit``, so it neither
    flushes inherited buffers nor runs exit hooks.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)   # the pipe reaches EOF once the child exits
        return pid, os.fdopen(rfd, "rb")
    status = 1
    try:
        try:
            result = (True, job())
        except Exception as exc:
            result = (False, exc)
        data = pickle.dumps(result)
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _child_result(pid: int, data: bytes, status: int):
    """What a reaped child sent, or its exception raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        raise TriTraceError(f"worker process {pid} exited with status {code} without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _claims(counter, count: int):
    """Block indices below ``count`` that this process claims from ``counter``.

    ``counter`` is a pipe holding one 8-byte record, the next unclaimed index.
    A claim reads the record whole, which leaves the pipe empty so every other
    claimant waits, and writes back its successor; each index thus goes to
    exactly one process.  A pipe write below ``PIPE_BUF`` bytes is atomic, so
    a read finds the whole record or none of it.
    """
    rfd, wfd = counter
    while True:
        index = int.from_bytes(os.read(rfd, 8), "little")
        os.write(wfd, (index + 1).to_bytes(8, "little"))
        if index >= count:
            return
        yield index


def _raw_traces(spec, n, k_list, trials, master_seed, workers, lead=None):
    """Raw traces of every trial, and the result of ``lead()`` (None without a lead).

    ``workers - 1`` forked children start claiming blocks at once, this
    process runs ``lead`` and then claims blocks too; one worker is the same
    run with no children.  Each block lands at its trial indices, so the
    result never depends on who evaluated it.  A block that no process sent
    raises :class:`TriTraceError` naming it.
    """
    ranges = [(lo, min(lo + TRIAL_BLOCK, trials)) for lo in range(0, trials, TRIAL_BLOCK)]
    raw = np.empty((trials, len(k_list)))
    workers = min(workers, len(ranges))
    import numpy.random  # noqa: F401 -- imported once here, not once per child

    def evaluate():
        tracer = RowTracer(n, k_list)   # one per process: its blocks share the workspaces
        return [(i, _trace_block(spec, n, tracer, master_seed, *ranges[i]))
                for i in _claims(counter, len(ranges))]

    counter = os.pipe()
    os.write(counter[1], (0).to_bytes(8, "little"))
    children = {}   # pid -> read end of its pipe, for each child not yet reaped
    try:
        for _ in range(1, workers):
            pid, pipe = _fork(evaluate)
            children[pid] = pipe
        result = lead() if lead else None
        blocks = evaluate()
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            blocks += _child_result(pid, data, status)
    finally:
        if children:   # a failed run; only it needs signal, so keep that off the import path
            import signal
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(counter[0])
        os.close(counter[1])
    for i, block in blocks:
        lo, hi = ranges[i]
        raw[lo:hi] = block
    lost = sorted(set(range(len(ranges))) - {i for i, _ in blocks})
    if lost:
        raise TriTraceError("trial blocks never evaluated: " + ", ".join(
            f"{i} (trials {ranges[i][0]}..{ranges[i][1] - 1})" for i in lost))
    return raw, result


def growth_exponents(spec: EnsembleSpec, k_list, alpha: float | None,
                     epsilon: float | None) -> list[float]:
    """Scaling exponents ``alpha*k + 1/2 - epsilon`` for each power.

    Whichever of ``alpha`` and ``epsilon`` is None takes its value from the
    spec's default growth; a given value, a finite real number, is always kept.
    """
    da, de = spec.default_growth
    alpha = da if alpha is None else checked_real("alpha", alpha)
    epsilon = de if epsilon is None else checked_real("epsilon", epsilon)
    return [alpha * k + 0.5 - epsilon for k in k_list]


def mc_traces(spec: EnsembleSpec, n: int, k_list, trials: int, master_seed: int,
              alpha: float | None, epsilon: float | None, *, workers: int = 1) -> np.ndarray:
    """Scaled, centered traces over independent trials: (trials, len(k_list)).

    Trial ``t`` samples its matrix from the stream keyed by
    ``(master_seed, t)``; the output is ordered by trial index regardless of
    how blocks were scheduled, so worker counts never change the result.
    Traces are centered at the exact mean when one is available in closed
    form, otherwise at the across-trial empirical mean, then multiplied by
    ``n ** -(alpha*k + 1/2 - epsilon)``, a None exponent taking the spec's default.
    """
    n, k_list, trials, workers = _check_trace_run(n, k_list, trials, workers)
    master_seed = seed_int(master_seed)
    exponents = growth_exponents(spec, k_list, alpha, epsilon)
    raw, _ = _raw_traces(spec, n, k_list, trials, master_seed, workers)
    return center_and_scale(spec, n, k_list, raw, exponents)


def _check_trace_run(n: int, k_list, trials: int, workers: int):
    """``(n, k_list, trials, workers)`` as ints, or :class:`InvalidArgumentError` if
    :func:`_raw_traces` cannot run them (trial indices are 32-bit spawn words)."""
    k_list = tuple(checked_int("k", k, 1, K_MAX) for k in k_list)
    if not k_list:
        raise InvalidArgumentError("k_list must be non-empty")
    n = checked_int("n", n, 2)
    if n < max(k_list) // 2 + 1:
        raise InvalidArgumentError("n too small for the largest requested power")
    trials = checked_int("trials", trials, 2, MAX_TRIALS)
    workers = checked_int("workers", workers, 1)
    if workers > 1 and not hasattr(os, "fork"):
        raise InvalidArgumentError("workers > 1 needs os.fork, which this platform lacks")
    return n, k_list, trials, workers


def center_and_scale(spec: EnsembleSpec, n: int, k_list, raw: np.ndarray,
                     exponents) -> np.ndarray:
    """Raw traces ``(trials, len(k_list))`` centered per power, then times ``n ** -exponent``.

    The center is the exact mean when one is available in closed form,
    otherwise the across-trial empirical mean.
    """
    centers = np.empty(len(k_list))
    for j, k in enumerate(k_list):
        exact = exact_trace_mean(spec, k)
        centers[j] = raw[:, j].mean() if exact is None else exact
    return (raw - centers) * np.power(float(n), -np.array(exponents))


# ---------------------------------------------------------------------------
# Limiting variance and covariance targets


@dataclass(frozen=True)
class DkEstimate:
    """Windowed Monte Carlo estimate of the limiting per-power variance."""

    value: float
    standard_error: float


def _require_iid(spec: EnsembleSpec) -> None:
    if not spec.is_iid_type:
        raise InvalidArgumentError(
            "estimator requires i.i.d.-type site triples "
            "(growth ensembles and the conductance kernel are excluded)")


def _window_covariance(spec: EnsembleSpec, k_list, replicas: int,
                       seed) -> tuple[np.ndarray, np.ndarray]:
    """Limiting covariance of the traces over ``k_list``, and its standard errors.

    Draws ``replicas`` windows from site 2 (the site-1 triple has a boundary
    law) and evaluates each power's summands at sites ``2 .. 2 + m*``, ``m*``
    the largest dependence range.  For powers ``k_i, k_j`` of larger range
    ``m``, let ``y`` be the first summand and ``w`` the first plus twice the
    next ``m``, both centred; the term ``t = (y_i w_j + y_j w_i) / 2`` has the
    lag-covariance sum as its mean.  Returns ``sum(t) / (replicas - 1)`` and
    ``std(t) / sqrt(replicas)``, each a matrix.
    """
    k_list = tuple(checked_int("k", k, 1, K_MAX) for k in k_list)
    replicas = checked_int("replicas", replicas, 2)
    _require_iid(spec)
    deps = [dependence_range(k, spec.symmetric).m_k for k in k_list]
    m_star = max(deps)
    arrays = sample_window_arrays(spec, 2, m_star + max(k_list) // 2 + 1, replicas, seed)
    summands = [_summand_block(*arrays, m_star + 1, k) for k in k_list]

    def centred(x, m):
        y = x[:, 0]
        w = y + 2.0 * x[:, 1:m + 1].sum(axis=1)
        return y - y.mean(), w - w.mean()

    value, se = np.empty((2, len(k_list), len(k_list)))
    for i in range(len(k_list)):
        for j in range(i, len(k_list)):
            m = max(deps[i], deps[j])
            y_i, w_i = centred(summands[i], m)
            if i == j:   # (y w + y w) / 2 to the bit, for one product's work
                t = y_i * w_i
            else:
                y_j, w_j = centred(summands[j], m)
                t = (y_i * w_j + y_j * w_i) / 2
            value[i, j] = value[j, i] = t.sum() / (replicas - 1)
            se[i, j] = se[j, i] = t.std(ddof=1) / math.sqrt(replicas)
    return value, se


def dk_iid(spec: EnsembleSpec, k: int, replicas: int, seed) -> DkEstimate:
    """Estimate ``D_k``, the limiting variance of the standardized trace for power k.

    It is the one entry of :func:`_window_covariance` for ``(k,)``: the sample
    variance of the first summand plus twice its summed lag covariances."""
    value, se = _window_covariance(spec, (k,), replicas, seed)
    return DkEstimate(value=float(value[0, 0]), standard_error=float(se[0, 0]))


@dataclass(frozen=True)
class CovarianceTarget:
    """A covariance matrix for standardized traces plus its provenance."""

    source: str
    value: np.ndarray

    def __post_init__(self):
        if self.source not in COVARIANCE_SOURCES:
            raise InvalidArgumentError(f"unknown covariance source {self.source!r}")
        value = np.asarray(self.value, dtype=float)
        if value.ndim != 2 or value.shape[0] != value.shape[1]:
            raise InvalidArgumentError("covariance target must be square")
        if not np.allclose(value, value.T, rtol=0.0, atol=1e-12):
            raise InvalidArgumentError("covariance target must be symmetric")
        object.__setattr__(self, "value", 0.5 * (value + value.T))


def _beta_hermite_entry(k_i: int, k_j: int, beta: float) -> float:
    if k_i % 2 == 0 and k_j % 2 == 0:
        return (1.0 / beta) * k_i * k_j / (k_i + k_j) \
            * math.comb(k_i, k_i // 2) * math.comb(k_j, k_j // 2)
    if k_i % 2 == 1 and k_j % 2 == 1:
        return (4.0 / beta) * k_i * k_j / (k_i + k_j) \
            * math.comb(k_i - 1, (k_i - 1) // 2) * math.comb(k_j - 1, (k_j - 1) // 2)
    return 0.0


def _symmetric_degenerate_entry(k_i, k_j, a, var_eta, var_zeta, alpha, epsilon) -> float:
    if not 0.0 < epsilon <= alpha:
        raise InvalidArgumentError("symmetric degenerate regime needs 0 < epsilon <= alpha")
    if k_i % 2 == 0 and k_j % 2 == 0:
        return a ** (k_i + k_j - 2) * var_eta / (alpha * (k_i + k_j) + 1 - 2 * epsilon) \
            * k_i * k_j * math.comb(k_i, k_i // 2) * math.comb(k_j, k_j // 2)
    if k_i % 2 == 1 and k_j % 2 == 1:
        if epsilon < alpha:
            return 0.0  # the diagonal fluctuation degenerates below the leading order
        return a ** (k_i + k_j - 2) * var_zeta / (alpha * (k_i + k_j) + 1 - 2 * alpha) \
            * k_i * k_j * math.comb(k_i - 1, (k_i - 1) // 2) * math.comb(k_j - 1, (k_j - 1) // 2)
    return 0.0


def covariance_target(k_list, regime: str, *, beta: float | None = None,
                      a: float | None = None, var_eta: float | None = None,
                      var_zeta: float | None = None, alpha: float | None = None,
                      epsilon: float | None = None, spec: EnsembleSpec | None = None,
                      replicas: int | None = None, seed=None) -> CovarianceTarget:
    """Limiting covariance matrix of standardized traces over ``k_list``.

    ``regime`` selects the evaluation route: the closed β-ensemble form
    (``beta``), the symmetric degenerate-limit closed form (``a``,
    ``var_eta``, ``var_zeta``, ``alpha``, ``epsilon``), or a windowed Monte
    Carlo for i.i.d.-type entries (``spec``, ``replicas``, ``seed``).
    """
    k_list = tuple(checked_int("k", k, 1) for k in k_list)
    if not k_list:
        raise InvalidArgumentError("k_list must be non-empty")
    if regime == "beta_hermite":
        if (beta := checked_real("beta", beta)) <= 0:
            raise InvalidArgumentError("beta_hermite regime requires beta > 0")
        value = np.array([[_beta_hermite_entry(ki, kj, beta) for kj in k_list] for ki in k_list])
        return CovarianceTarget(source="beta_hermite_formula", value=value)
    if regime == "symmetric_degenerate":
        given = dict(a=a, var_eta=var_eta, var_zeta=var_zeta, alpha=alpha, epsilon=epsilon)
        # a parameter left out is None, an error naming it
        params = {name: checked_real(name, value) for name, value in given.items()}
        value = np.array([[_symmetric_degenerate_entry(ki, kj, **params)
                           for kj in k_list] for ki in k_list])
        return CovarianceTarget(source="symmetric_degenerate_formula", value=value)
    if regime == "iid_mc":
        if spec is None or replicas is None:
            raise InvalidArgumentError("iid_mc regime requires spec and replicas")
        return CovarianceTarget(source="iid_window_formula",
                                value=_window_covariance(spec, k_list, replicas, seed)[0])
    raise InvalidArgumentError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# Normality diagnostics


@dataclass(frozen=True)
class MomentReport:
    """Empirical moments of scaled centered traces with MC standard errors."""

    k_list: tuple[int, ...]
    trials: int
    n: int
    scaling_exponents: tuple[float, ...]
    mean: tuple[float, ...]
    variance: tuple[float, ...]
    covariance: np.ndarray
    skewness: tuple[float, ...]
    excess_kurtosis: tuple[float, ...]
    ks_distance: tuple[float, ...]
    ks_critical_1pct: float
    mc_standard_errors: dict

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if not np.allclose(cov, cov.T, rtol=0.0, atol=0.0):
            raise InvalidArgumentError("covariance must be exactly symmetric")
        if not np.allclose(np.diag(cov), np.asarray(self.variance), rtol=1e-12, atol=0.0):
            raise InvalidArgumentError("covariance diagonal must equal the variances")
        if any(not 0.0 <= d <= 1.0 for d in self.ks_distance):
            raise InvalidArgumentError("KS distances must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        """Every field under its name (:func:`_as_json`)."""
        return {f.name: _as_json(getattr(self, f.name)) for f in fields(self)}


def _as_json(value):
    """Arrays and tuples as lists, a dict entry by entry, anything else as is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {key: _as_json(val) for key, val in value.items()}
    return value


def ks_distance_to_normal(standardized: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample against the standard normal."""
    from scipy.special import ndtr  # only KS needs scipy; keep it off the import path

    z = np.sort(np.asarray(standardized, dtype=float))
    n = z.size
    cdf = ndtr(z)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower, 0.0))


def _jackknife_moment_ses(x: np.ndarray) -> tuple[float, float, float]:
    """Leave-one-out standard errors for (variance, skewness, excess kurtosis)."""
    n = x.size
    s1, s2, s3, s4 = (np.sum(x ** p) for p in (1, 2, 3, 4))
    m = n - 1
    l1 = (s1 - x) / m
    l2 = (s2 - x ** 2) / m
    l3 = (s3 - x ** 3) / m
    l4 = (s4 - x ** 4) / m
    c2 = l2 - l1 ** 2
    c3 = l3 - 3 * l1 * l2 + 2 * l1 ** 3
    c4 = l4 - 4 * l1 * l3 + 6 * l1 ** 2 * l2 - 3 * l1 ** 4
    with np.errstate(divide="ignore", invalid="ignore"):
        var_i = c2 * m / (m - 1)
        skew_i = np.where(c2 > 0, c3 / np.maximum(c2, 1e-300) ** 1.5, 0.0)
        kurt_i = np.where(c2 > 0, c4 / np.maximum(c2, 1e-300) ** 2 - 3.0, 0.0)

    def jk_se(theta: np.ndarray) -> float:
        return float(math.sqrt(max((n - 1) / n * np.sum((theta - theta.mean()) ** 2), 0.0)))

    return jk_se(var_i), jk_se(skew_i), jk_se(kurt_i)


def sample_covariance(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of ``(trials, r)`` samples and its entrywise standard error."""
    trials = samples.shape[0]
    centered = samples - samples.mean(axis=0)
    cov = (centered.T @ centered) / (trials - 1)
    cov = 0.5 * (cov + cov.T)
    sq = centered ** 2
    se = np.sqrt(np.maximum(np.einsum("ti,tj->ij", sq, sq) / trials - cov ** 2, 0.0) / trials)
    return cov, se


def covariance_failures(k_list, empirical: np.ndarray, se: np.ndarray, target: np.ndarray,
                        tolerance: float = COV_TOLERANCE) -> list[tuple[int, int]]:
    """The ``(k_i, k_j)`` entries where ``|empirical - target|`` is not within
    the allowance; an empty list passes the covariance gate.

    The allowance is ``4 se``, ``se`` the empirical entry's standard error,
    where the powers' parities differ, else ``max(tolerance |target|, 4 se)``.
    A NaN deviation fails.
    """
    if (tolerance := checked_real("tolerance", tolerance)) < 0:
        raise InvalidArgumentError(f"tolerance must be >= 0, got {tolerance}")
    k_arr = np.array(k_list)
    mixed = (k_arr[:, None] % 2) != (k_arr[None, :] % 2)
    allowed = np.where(mixed, 4.0 * se, np.maximum(tolerance * np.abs(target), 4.0 * se))
    within = np.abs(empirical - target) <= allowed
    return [(k_list[i], k_list[j]) for i, j in zip(*np.nonzero(~within))]


def normality_report(samples: np.ndarray, targets: CovarianceTarget, *, k_list,
                     n: int, scaling_exponents) -> MomentReport:
    """Moment and KS diagnostics of trace samples against Gaussian targets.

    Samples are standardized by the *target* variance (not the empirical
    one) before the KS comparison; a non-positive target raises
    :class:`DegenerateTargetError` so that exactly-degenerate cases surface
    instead of producing meaningless distances.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < MIN_REPORT_TRIALS:
        raise InvalidArgumentError(
            f"distributional statistics need at least {MIN_REPORT_TRIALS} trials")
    k_list = tuple(checked_int("k", k, 1) for k in k_list)
    n = checked_int("n", n, 2)
    exponents = tuple(checked_real("scaling_exponents entry", e) for e in scaling_exponents)
    trials, r = samples.shape
    if not k_list:
        raise InvalidArgumentError("k_list must be non-empty")
    if r != len(k_list) or targets.value.shape != (r, r):
        raise InvalidArgumentError("samples, k_list and targets have inconsistent shapes")

    cov, cov_se = sample_covariance(samples)
    columns = []   # per power: mean, skewness, excess kurtosis, KS and four standard errors
    for j, k in enumerate(k_list):
        x = samples[:, j]
        tv = float(targets.value[j, j])
        if tv <= 1e-12:
            raise DegenerateTargetError(
                f"target variance for power {k} is {tv:g}; cannot standardize")
        mu = float(x.mean())
        c = x - mu
        m2, m3, m4 = (float((c ** p).mean()) for p in (2, 3, 4))
        columns.append((mu, m3 / m2 ** 1.5 if m2 > 0 else 0.0,
                        m4 / m2 ** 2 - 3.0 if m2 > 0 else 0.0,
                        ks_distance_to_normal(x / math.sqrt(tv)),
                        float(x.std(ddof=1) / math.sqrt(trials)), *_jackknife_moment_ses(x)))
    means, skews, kurts, ks, mean_se, var_se, skew_se, kurt_se = zip(*columns)

    return MomentReport(
        k_list=k_list, trials=trials, n=n, scaling_exponents=exponents, mean=means,
        variance=tuple(float(v) for v in np.diag(cov)), covariance=cov, skewness=skews,
        excess_kurtosis=kurts, ks_distance=ks, ks_critical_1pct=1.63 / math.sqrt(trials),
        mc_standard_errors={"mean": mean_se, "variance": var_se, "skewness": skew_se,
                            "excess_kurtosis": kurt_se, "covariance": cov_se})


def ks_failures(report: MomentReport) -> list[int]:
    """The powers whose KS distance exceeds the report's 1% critical value;
    an empty list passes the Gaussian-fluctuation gate."""
    return [k for k, d in zip(report.k_list, report.ks_distance) if d > report.ks_critical_1pct]

