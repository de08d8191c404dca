"""Site summands, trace Monte Carlo, limiting variances and normality checks.

The trace of the k-th power differs from the sum of per-site summands
``X_{k,i}`` only by a right-boundary correction that stays O(1) in the
dimension, so centered traces fluctuate like sums of finite-range-dependent
variables.  This module evaluates the summands, runs reproducible Monte
Carlo over scaled centered traces, estimates the limiting variance and
covariance targets, and reports moment / Kolmogorov-Smirnov diagnostics
against the Gaussian limit.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .accumulate import compensated_sum
from .circuits import (
    class_product,
    enumerate_types,
    slot_powers,
    trace_power_expansion,
    traces_for_rows,
)
from .ensembles import (
    MAX_TRIALS,
    EnsembleSpec,
    counts_diagonal_signs,
    diagonal_sign_sums,
    sample_matrix_chunks,
    sample_window,
    sample_window_arrays,
    trial_seed_sequence,
    window_to_matrix,
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

COVARIANCE_SOURCES = ("iid_window_formula", "symmetric_degenerate_formula",
                      "beta_hermite_formula")


@dataclass(frozen=True)
class DependenceRange:
    """Index gap beyond which site summands for power ``k`` are independent."""

    k: int
    symmetric: bool
    m_k: int = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise InvalidArgumentError("k must be >= 1")
        object.__setattr__(self, "m_k", self.k // 2 + (1 if self.symmetric else 0))


def dependence_range(k: int, symmetric: bool) -> DependenceRange:
    return DependenceRange(k=k, symmetric=symmetric)


# ---------------------------------------------------------------------------
# Site summands


def _summand_block(a: np.ndarray, d: np.ndarray, b: np.ndarray, first_index: int,
                   sites: range, k: int, types) -> np.ndarray:
    """Per-site summands over batched windows: (replicas, len(sites))."""
    if not (isinstance(sites, range) and sites.step == 1 and len(sites)):
        raise InvalidArgumentError("sites must be a non-empty range of consecutive indices")
    base = sites[0] - first_index
    width = len(sites)
    if base < 0 or base + width - 1 + k // 2 > d.shape[1] - 1:
        raise InvalidArgumentError("window too short for requested site")
    # ab[:, t] = a_{f+t} * b_{f+t}: the a-slot of site s holds a_{s-1};
    # k=1's one class reads only the diagonal
    pows = slot_powers(a[:, 1:] * b[:, :-1] if k > 1 else None, d)
    out = np.zeros((d.shape[0], width))
    for t in types:
        out += t.count * class_product(pows, t, base, width)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo over traces


def exact_trace_mean(spec: EnsembleSpec, n: int, k: int) -> float | None:
    """Closed-form E trace(Q^k) where available, else None.

    Fixed off-diagonals with independent symmetric zero-mean diagonal entries
    make every odd-power summand mean vanish.
    """
    if spec.model == "anderson" and k % 2 == 1 and spec.d_law.symmetric_zero_mean:
        return 0.0
    return None


def _trace_block(spec: EnsembleSpec, n: int, k_list, master_seed: int,
                 lo: int, hi: int) -> np.ndarray:
    """Raw traces of trials ``lo .. hi-1``, sampled and evaluated in row chunks.

    The route follows from the spec and ``k_list``, never from the run's
    size.  When every power is 1 and the diagonal is a Rademacher stream of
    its own (:func:`counts_diagonal_signs`), the traces are counts of sign
    bits (:func:`diagonal_sign_sums`) and no row is built; they have the
    bits :func:`traces_for_rows` gives, whose compensated sum of ``+-1``
    entries is exact.
    """
    rows = max(1, CHUNK_ENTRIES // n)
    if set(k_list) == {1} and counts_diagonal_signs(spec):
        sums = diagonal_sign_sums(spec, n, master_seed, range(lo, hi), rows)
        return np.repeat(sums[:, None], len(k_list), axis=1)
    out = np.empty((hi - lo, len(k_list)))
    reads_edges = max(k_list) > 1   # k=1's one class reads only the diagonal
    for chunk, sub, diag, sup in sample_matrix_chunks(spec, n, master_seed, range(lo, hi), rows):
        ab = sub * sup if reads_edges else None
        out[chunk.start - lo:chunk.stop - lo] = traces_for_rows(ab, diag, k_list)
    return out


def _block_ranges(trials: int):
    return [(lo, min(lo + TRIAL_BLOCK, trials)) for lo in range(0, trials, TRIAL_BLOCK)]


def _fork(job, *args):
    """Run ``job(*args)`` in a forked child; returns its pid and the read end of its pipe.

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
            result = (True, job(*args))
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

    With one worker, ``lead`` runs first and the blocks follow in order.
    Otherwise ``workers - 1`` forked children start claiming blocks at once,
    this process runs ``lead`` and then claims blocks too; each block lands at
    its trial indices, so the result never depends on who evaluated it.
    """
    ranges = _block_ranges(trials)
    raw = np.empty((trials, len(k_list)))
    workers = min(workers, len(ranges))
    if workers <= 1:
        result = lead() if lead else None
        for lo, hi in ranges:
            raw[lo:hi] = _trace_block(spec, n, k_list, master_seed, lo, hi)
        return raw, result

    import numpy.random  # noqa: F401 -- imported once here, not once per child

    def evaluate():
        return [(i, _trace_block(spec, n, k_list, master_seed, *ranges[i]))
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
    return raw, result


def growth_exponents(spec: EnsembleSpec, k_list, alpha: float | None = None,
                     epsilon: float | None = None) -> list[float]:
    """Scaling exponents ``alpha*k + 1/2 - epsilon`` for each power.

    Whichever of ``alpha`` and ``epsilon`` is None takes its value from the
    spec's default growth; a given value is always kept.
    """
    da, de = spec.default_growth
    alpha = da if alpha is None else alpha
    epsilon = de if epsilon is None else epsilon
    return [alpha * k + 0.5 - epsilon for k in k_list]


def mc_traces(spec: EnsembleSpec, n: int, k_list, trials: int, master_seed: int,
              alpha: float | None = None, epsilon: float | None = None, *,
              workers: int = 1) -> np.ndarray:
    """Scaled, centered traces over independent trials: (trials, len(k_list)).

    Trial ``t`` samples its matrix from the stream keyed by
    ``(master_seed, t)``; the output is ordered by trial index regardless of
    how blocks were scheduled, so worker counts never change the result.
    Traces are centered at the exact mean when one is available in closed
    form, otherwise at the across-trial empirical mean, then multiplied by
    ``n ** -(alpha*k + 1/2 - epsilon)``.
    """
    k_list = tuple(int(k) for k in k_list)
    _check_trace_run(n, k_list, trials, workers)
    exponents = growth_exponents(spec, k_list, alpha, epsilon)
    raw, _ = _raw_traces(spec, n, k_list, trials, master_seed, workers)
    return center_and_scale(spec, n, k_list, raw, exponents)


def _check_trace_run(n: int, k_list: tuple[int, ...], trials: int, workers: int) -> None:
    """Reject Monte Carlo arguments that :func:`_raw_traces` cannot run."""
    if trials < 2:
        raise InvalidArgumentError("trials must be >= 2")
    if trials > MAX_TRIALS:
        raise InvalidArgumentError("trials must be <= 2**32: trial indices are 32-bit spawn words")
    if not k_list:
        raise InvalidArgumentError("k_list must be non-empty")
    if n < max(k_list) // 2 + 1:
        raise InvalidArgumentError("n too small for the largest requested power")
    if workers > 1 and not hasattr(os, "fork"):
        raise InvalidArgumentError("workers > 1 needs os.fork, which this platform lacks")


def center_and_scale(spec: EnsembleSpec, n: int, k_list, raw: np.ndarray,
                     exponents) -> np.ndarray:
    """Raw traces ``(trials, len(k_list))`` centered per power, then times ``n ** -exponent``.

    The center is the exact mean when one is available in closed form,
    otherwise the across-trial empirical mean.
    """
    centers = np.empty(len(k_list))
    for j, k in enumerate(k_list):
        exact = exact_trace_mean(spec, n, k)
        centers[j] = raw[:, j].mean() if exact is None else exact
    return (raw - centers) * np.power(float(n), -np.array(exponents))


# ---------------------------------------------------------------------------
# Limiting variance and covariance targets


@dataclass(frozen=True)
class DkEstimate:
    """Windowed Monte Carlo estimate of the limiting per-power variance."""

    value: float
    standard_error: float
    replicas: int
    dependence: DependenceRange


def _require_iid(spec: EnsembleSpec) -> None:
    if not spec.is_iid_type:
        raise InvalidArgumentError(
            "estimator requires i.i.d.-type site triples "
            "(growth ensembles and the conductance kernel are excluded)")


def dk_iid(spec: EnsembleSpec, k: int, replicas: int, seed) -> DkEstimate:
    """Estimate the limiting variance of the standardized trace for power k.

    Draws ``replicas`` independent windows starting at site 2 (the site-1
    triple has a boundary law) covering summand sites ``2 .. 2 + m_k``, and
    returns the sample variance of the first summand plus twice the summed
    lag covariances, with a standard error.
    """
    if replicas < 2:
        raise InvalidArgumentError("replicas must be >= 2")
    _require_iid(spec)
    dep = dependence_range(k, spec.symmetric)
    length = dep.m_k + k // 2 + 1
    arrays = sample_window_arrays(spec, 2, length, replicas, seed)
    sites = range(2, 2 + dep.m_k + 1)
    x = _summand_block(*arrays, 2, sites, k, enumerate_types(k))
    y = x[:, 0]
    w = x[:, 0] + 2.0 * x[:, 1:].sum(axis=1)
    yc = y - y.mean()
    wc = w - w.mean()
    terms = yc * wc
    value = float(terms.sum() / (replicas - 1))
    se = float(terms.std(ddof=1) / math.sqrt(replicas))
    return DkEstimate(value=value, standard_error=se, replicas=replicas, dependence=dep)


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


def _iid_mc_matrix(k_list, spec: EnsembleSpec, replicas: int, seed) -> np.ndarray:
    _require_iid(spec)
    if replicas < 2:
        raise InvalidArgumentError("replicas must be >= 2")
    deps = {k: dependence_range(k, spec.symmetric).m_k for k in k_list}
    m_star = max(deps.values())
    length = m_star + max(k_list) // 2 + 1
    arrays = sample_window_arrays(spec, 2, length, replicas, seed)
    sites = range(2, 2 + m_star + 1)
    summands = {k: _summand_block(*arrays, 2, sites, k, enumerate_types(k)) for k in k_list}
    centered = {k: x - x.mean(axis=0) for k, x in summands.items()}
    r = replicas
    out = np.empty((len(k_list), len(k_list)))
    for i, k_i in enumerate(k_list):
        for j, k_j in enumerate(k_list):
            if j < i:
                continue
            m_ij = max(deps[k_i], deps[k_j])
            xi = centered[k_i]
            xj = centered[k_j]
            total = float((xi[:, 0] * xj[:, 0]).sum() / (r - 1))
            for h in range(1, m_ij + 1):
                total += float((xi[:, 0] * xj[:, h]).sum() / (r - 1))
                total += float((xi[:, h] * xj[:, 0]).sum() / (r - 1))
            out[i, j] = out[j, i] = total
    return out


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
    k_list = tuple(int(k) for k in k_list)
    if not k_list or min(k_list) < 1:
        raise InvalidArgumentError("powers must be >= 1")
    if regime == "beta_hermite":
        if beta is None or beta <= 0:
            raise InvalidArgumentError("beta_hermite regime requires beta > 0")
        value = np.array([[_beta_hermite_entry(ki, kj, beta) for kj in k_list] for ki in k_list])
        return CovarianceTarget(source="beta_hermite_formula", value=value)
    if regime == "symmetric_degenerate":
        if None in (a, var_eta, var_zeta, alpha, epsilon):
            raise InvalidArgumentError("symmetric_degenerate regime parameters incomplete")
        value = np.array([[_symmetric_degenerate_entry(ki, kj, a, var_eta, var_zeta, alpha, epsilon)
                           for kj in k_list] for ki in k_list])
        return CovarianceTarget(source="symmetric_degenerate_formula", value=value)
    if regime == "iid_mc":
        if spec is None or replicas is None:
            raise InvalidArgumentError("iid_mc regime requires spec and replicas")
        return CovarianceTarget(source="iid_window_formula",
                                value=_iid_mc_matrix(k_list, spec, replicas, seed))
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
        se = {key: (val.tolist() if isinstance(val, np.ndarray) else list(val))
              for key, val in self.mc_standard_errors.items()}
        return {
            "k_list": list(self.k_list),
            "trials": self.trials,
            "n": self.n,
            "scaling_exponents": list(self.scaling_exponents),
            "mean": list(self.mean),
            "variance": list(self.variance),
            "covariance": self.covariance.tolist(),
            "skewness": list(self.skewness),
            "excess_kurtosis": list(self.excess_kurtosis),
            "ks_distance": list(self.ks_distance),
            "ks_critical_1pct": self.ks_critical_1pct,
            "mc_standard_errors": se,
        }


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


def normality_report(samples: np.ndarray, targets: CovarianceTarget, *, k_list,
                     n: int, scaling_exponents) -> MomentReport:
    """Moment and KS diagnostics of trace samples against Gaussian targets.

    Samples are standardized by the *target* variance (not the empirical
    one) before the KS comparison; a non-positive target raises
    :class:`DegenerateTargetError` so that exactly-degenerate cases surface
    instead of producing meaningless distances.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 100:
        raise InvalidArgumentError("distributional statistics need at least 100 trials")
    k_list = tuple(int(k) for k in k_list)
    trials, r = samples.shape
    if r != len(k_list) or targets.value.shape != (r, r):
        raise InvalidArgumentError("samples, k_list and targets have inconsistent shapes")

    cov, cov_se = sample_covariance(samples)
    variance = tuple(float(v) for v in np.diag(cov))

    means, skews, kurts, ks = [], [], [], []
    mean_se, var_se, skew_se, kurt_se = [], [], [], []
    for j, k in enumerate(k_list):
        x = samples[:, j]
        tv = float(targets.value[j, j])
        if tv <= 1e-12:
            raise DegenerateTargetError(
                f"target variance for power {k} is {tv:g}; cannot standardize")
        mu = float(x.mean())
        means.append(mu)
        c = x - mu
        m2 = float((c ** 2).mean())
        m3 = float((c ** 3).mean())
        m4 = float((c ** 4).mean())
        skews.append(m3 / m2 ** 1.5 if m2 > 0 else 0.0)
        kurts.append(m4 / m2 ** 2 - 3.0 if m2 > 0 else 0.0)
        ks.append(ks_distance_to_normal(x / math.sqrt(tv)))
        mean_se.append(float(x.std(ddof=1) / math.sqrt(trials)))
        vse, sse, kse = _jackknife_moment_ses(x)
        var_se.append(vse)
        skew_se.append(sse)
        kurt_se.append(kse)

    return MomentReport(
        k_list=k_list, trials=trials, n=n,
        scaling_exponents=tuple(float(e) for e in scaling_exponents),
        mean=tuple(means), variance=variance, covariance=cov,
        skewness=tuple(skews), excess_kurtosis=tuple(kurts),
        ks_distance=tuple(ks), ks_critical_1pct=1.63 / math.sqrt(trials),
        mc_standard_errors={
            "mean": tuple(mean_se), "variance": tuple(var_se),
            "skewness": tuple(skew_se), "excess_kurtosis": tuple(kurt_se),
            "covariance": cov_se,
        })


# ---------------------------------------------------------------------------
# Boundary terms


def boundary_bound(spec: EnsembleSpec, k: int) -> float:
    """Deterministic bound on |sum of site summands - trace|, uniform in n."""
    ab_max, d_max = spec.entry_bounds()
    total = 0.0
    for t in enumerate_types(k):
        if t.span == 0:
            continue
        total += t.count * t.span * ab_max ** sum(t.half_edges) * d_max ** sum(t.loops)
    return total


def boundary_gap_samples(spec: EnsembleSpec, n: int, k: int, trials: int,
                         master_seed: int) -> np.ndarray:
    """Signed gaps ``sum_i X_{k,i} - trace(Q^k)`` over seeded realizations.

    Each trial samples one window long enough to cover every summand site
    ``1 .. n`` and truncates its head to the matrix, so both sides use the
    same realization of the entry sequences.
    """
    if not spec.window_matrix_consistent:
        raise InvalidArgumentError(
            "model has right-boundary cells; window truncation does not reproduce it")
    types = enumerate_types(k)
    length = n + k // 2
    gaps = np.empty(trials)
    for t in range(trials):
        window = sample_window(spec, 1, length, trial_seed_sequence(master_seed, t))
        matrix = window_to_matrix(window, n)
        x = _summand_block(window.a[None, :], window.d[None, :], window.b[None, :],
                           1, range(1, n + 1), k, types)[0]
        gaps[t] = compensated_sum(x) - trace_power_expansion(matrix, k, types)
    return gaps
