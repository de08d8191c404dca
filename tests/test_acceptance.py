"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 7 is encoded
at its stated parameters and marked strict-xfail: with speed n^0.5 = 100 the
predicted tail mass is exp(-50), so one million direct draws contain no tail
event and the empirical rate is infinite.  The companion check exercises the
same machinery where direct counting is feasible and must pass.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import boundary_bound, boundary_gap_samples, count_circuits_bruteforce, exhaustive_dk
from tritrace import circuits
from tritrace.circuits import (
    TridiagonalMatrix,
    enumerate_types,
    trace_power_direct,
    trace_power_expansion,
)
from tritrace.cli import main as cli_main
from tritrace.deviations import cramer_rate_k1, mdp_check
from tritrace.ensembles import EnsembleSpec, EntryLaw
from tritrace.stats import (
    covariance_target,
    dependence_range,
    dk_iid,
    ks_distance_to_normal,
    mc_traces,
)

SEED = 0x5EED
WORKERS = min(8, os.cpu_count() or 1)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    return ok


@dataclass
class TimedSamples:
    samples: np.ndarray
    elapsed: float


def _timed_mc(spec, n, k_list, trials, alpha=None, epsilon=None, workers=1):
    start = time.perf_counter()
    samples = mc_traces(spec, n, k_list, trials, SEED, alpha, epsilon, workers=workers)
    return TimedSamples(samples=samples, elapsed=time.perf_counter() - start)


@pytest.fixture(scope="module")
def anderson_4000():
    return _timed_mc(EnsembleSpec("anderson"), 4000, (1, 2, 3), 10_000, 0.0, 0.0)


@pytest.fixture(scope="module")
def anderson_2000():
    return _timed_mc(EnsembleSpec("anderson"), 2000, (1, 2, 3), 10_000, 0.0, 0.0)


@pytest.fixture(scope="module")
def beta_4000():
    return _timed_mc(EnsembleSpec("beta_hermite", beta=2.0), 4000, (1, 2, 3, 4), 10_000)


@pytest.fixture(scope="module")
def beta_2000():
    return _timed_mc(EnsembleSpec("beta_hermite", beta=2.0), 2000, (1, 2, 3, 4), 10_000)


def test_criterion_01_circuit_count_regression():
    with circuits._TYPE_LOCK:
        circuits._TYPE_TABLE.pop(3, None)
        circuits._TYPE_TABLE.pop(4, None)
    start = time.perf_counter()
    t3 = enumerate_types(3)
    t4 = enumerate_types(4)
    elapsed = time.perf_counter() - start
    ok = [t.count for t in t3] == [1, 3, 3]
    ok &= sorted(t.count for t in t4) == sorted([1, 4, 4, 4, 2, 4])
    ok &= {(t.span, t.half_edges, t.loops): t.count for t in t4} == {
        (0, (), (4,)): 1, (1, (1,), (2, 0)): 4, (1, (1,), (1, 1)): 4,
        (1, (1,), (0, 2)): 4, (1, (2,), (0, 0)): 2, (2, (1, 1), (0, 0, 0)): 4}
    ok &= elapsed < 1.0
    assert report(1, "circuit-count regression", ok, f"{elapsed:.3f}s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([8, 16, 32, 64]))
        k = int(rng.integers(1, 11))
        matrix = TridiagonalMatrix(sub=rng.uniform(-2, 2, n - 1),
                                   diag=rng.uniform(-2, 2, n),
                                   sup=rng.uniform(-2, 2, n - 1))
        e = trace_power_expansion(matrix, k, enumerate_types(k))
        d = trace_power_direct(matrix, k)
        worst = max(worst, abs(e - d) / (1.0 + abs(d)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(2, "trace oracle equivalence", ok,
                  f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_bruteforce_type_oracle():
    start = time.perf_counter()
    ok = True
    for k in range(1, 13):
        ok &= count_circuits_bruteforce(k) == {
            (t.span, t.half_edges, t.loops): t.count for t in enumerate_types(k)}
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert report(3, "brute-force type oracle k<=12", ok, f"{elapsed:.2f}s")


def test_criterion_04_clt_variance(anderson_4000):
    spec = EnsembleSpec("anderson")
    start = time.perf_counter()
    samples = anderson_4000.samples
    estimates = {k: dk_iid(spec, k, 200_000, SEED) for k in (1, 2, 3)}
    ok = True
    details = []
    for j, k in enumerate((1, 2, 3)):
        var = samples[:, j].var(ddof=1)
        est = estimates[k]
        ok &= abs(var - est.value) <= 0.05 * est.value
        details.append(f"k={k}: {var:.4f} vs {est.value:.4f}")
        if k <= 2:
            exact = exhaustive_dk(k, dependence_range(k, spec.symmetric).m_k,
                                  EntryLaw("rademacher").atoms)
            ok &= abs(est.value - exact) <= max(est.standard_error, 1e-15)
    ks = ks_distance_to_normal(samples[:, 0] / math.sqrt(estimates[1].value))
    critical = 1.63 / math.sqrt(samples.shape[0])
    ok &= ks < critical
    elapsed = anderson_4000.elapsed + (time.perf_counter() - start)
    ok &= elapsed < 300.0
    assert report(4, "CLT variance + KS (Anderson)", ok,
                  "; ".join(details) + f"; KS {ks:.4f} < {critical:.4f}; {elapsed:.1f}s")


def test_criterion_05_beta_hermite_covariance(beta_4000):
    start = time.perf_counter()
    k_list = (1, 2, 3, 4)
    target = covariance_target(k_list, "beta_hermite", beta=2.0).value
    samples = beta_4000.samples
    centered = samples - samples.mean(axis=0)
    trials = samples.shape[0]
    emp = centered.T @ centered / (trials - 1)
    se = np.sqrt(np.maximum(
        np.einsum("ti,tj->ij", centered ** 2, centered ** 2) / trials - emp ** 2,
        0.0) / trials)
    k_arr = np.array(k_list)
    mixed = (k_arr[:, None] % 2) != (k_arr[None, :] % 2)
    allowed = np.where(mixed, 4.0 * se, np.maximum(0.10 * np.abs(target), 4.0 * se))
    ok = bool(np.all(np.abs(emp - target) <= allowed))
    elapsed = beta_4000.elapsed + (time.perf_counter() - start)
    ok &= elapsed < 600.0
    diag = ", ".join(f"k={k}: {emp[j, j]:.3f}/{target[j, j]:.3f}"
                     for j, k in enumerate(k_list))
    assert report(5, "beta-ensemble covariance", ok, diag + f"; {elapsed:.1f}s")


def _variance_with_relse(scaled, unscale):
    x = scaled * unscale
    v = x.var(ddof=1)
    c = x - x.mean()
    m2 = (c ** 2).mean()
    m4 = (c ** 4).mean()
    relse = math.sqrt(max(m4 / m2 ** 2 - 1.0, 0.0) / x.size)
    return v, relse


def test_criterion_06_scaling_exponent(anderson_2000, anderson_4000, beta_2000, beta_4000):
    start = time.perf_counter()
    ok = True
    details = []
    cases = [
        ("anderson", anderson_2000, anderson_4000, (1, 2, 3), 0.0, 0.0, (1, 3)),
        ("beta", beta_2000, beta_4000, (1, 2, 3, 4), 0.5, 0.5, (2, 3)),
    ]
    for name, low, high, k_list, alpha, epsilon, checked in cases:
        for k in checked:
            j = k_list.index(k)
            expected = 2.0 ** (2 * alpha * k + 1 - 2 * epsilon)
            v1, r1 = _variance_with_relse(low.samples[:, j],
                                          2000.0 ** (alpha * k + 0.5 - epsilon))
            v2, r2 = _variance_with_relse(high.samples[:, j],
                                          4000.0 ** (alpha * k + 0.5 - epsilon))
            ratio = v2 / v1
            band = 4.0 * ratio * math.sqrt(r1 ** 2 + r2 ** 2)
            ok &= abs(ratio - expected) <= band
            details.append(f"{name} k={k}: {ratio:.3f} vs {expected:g}")
    elapsed = (anderson_2000.elapsed + anderson_4000.elapsed + beta_2000.elapsed
               + beta_4000.elapsed + (time.perf_counter() - start))
    ok &= elapsed < 600.0
    assert report(6, "scaling exponent n -> 2n", ok,
                  "; ".join(details) + f"; {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "stated parameters are infeasible for direct tail counting: speed "
    "n^nu = 100 with predicted rate 0.5 puts the tail mass at exp(-50), so "
    "1e6 trials contain no tail event and the empirical rate is infinite"))
def test_criterion_07_mdp_rate_as_stated():
    spec = EnsembleSpec("anderson")
    start = time.perf_counter()
    dk = dk_iid(spec, 1, 200_000, SEED)
    delta = math.sqrt(2.0 * dk.value * 0.5)  # predicted rate 0.5 by construction
    est = mdp_check(spec, 1, 0.5, [10_000], [delta], 1_000_000, SEED,
                    workers=WORKERS)[0]
    elapsed = time.perf_counter() - start
    within = (np.isfinite(est.empirical_rate)
              and abs(est.empirical_rate - est.predicted_rate) <= 0.25 * est.predicted_rate)
    report(7, "MDP rate at stated parameters", within and elapsed < 600.0,
           f"tail {est.tail_prob:g}, empirical {est.empirical_rate}, "
           f"predicted {est.predicted_rate:.3f}, flags {est.flags}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert within


def test_criterion_07_companion_feasible_mdp():
    # same statistic and machinery in the regime the feasibility guard allows
    spec = EnsembleSpec("anderson")
    start = time.perf_counter()
    dk = dk_iid(spec, 1, 200_000, SEED)
    delta = math.sqrt(2.0 * dk.value * 0.4)
    est = mdp_check(spec, 1, 0.5, [400], [delta], 1_000_000, SEED,
                    workers=WORKERS)[0]
    elapsed = time.perf_counter() - start
    ok = est.tail_prob > 0
    ok &= "low-count" not in est.flags
    ok &= abs(est.empirical_rate - est.predicted_rate) <= 0.25 * est.predicted_rate
    ok &= elapsed < 600.0
    assert report(7, "MDP rate, feasible companion (n=400)", ok,
                  f"empirical {est.empirical_rate:.4f} vs predicted "
                  f"{est.predicted_rate:.4f}, tail {est.tail_prob:.2e}, {elapsed:.0f}s")


def test_criterion_08_boundary_term_bound():
    start = time.perf_counter()
    ok = True
    details = []
    for spec, k in ((EnsembleSpec("anderson"), 2), (EnsembleSpec("anderson"), 3),
                    (EnsembleSpec("birth_death_q"), 3)):
        bound = boundary_bound(spec, k)
        means = []
        for n in (100, 1000, 10_000):
            gaps = boundary_gap_samples(spec, n, k, 48, SEED)
            ok &= bool(np.all(np.abs(gaps) <= bound + 1e-9))
            means.append(float(np.abs(gaps).mean()))
        for lo, hi in zip(means, means[1:]):
            ratio = hi / lo if lo else (0.0 if hi == 0.0 else math.inf)
            ok &= 0.0 <= ratio <= 2.0
        details.append(f"{spec.model} k={k}: mean gaps {means[0]:.3g}/{means[1]:.3g}/"
                       f"{means[2]:.3g} <= {bound:.3g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert report(8, "boundary term bounded and n-free", ok,
                  "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_09_cramer_closed_forms():
    start = time.perf_counter()

    def rademacher_rate(x):
        if abs(x) >= 1.0:
            return math.log(2.0) if abs(x) == 1.0 else math.inf
        return 0.5 * (1 + x) * math.log1p(x) + 0.5 * (1 - x) * math.log1p(-x)

    def bernoulli_rate(x):
        if x in (0.0, 1.0):
            return math.log(2.0)
        return x * math.log(2 * x) + (1 - x) * math.log(2 * (1 - x))

    grid_r = np.linspace(-0.98, 0.98, 101)
    got_r = cramer_rate_k1(EntryLaw("rademacher"), grid_r).rate
    err_r = float(np.max(np.abs(got_r - [rademacher_rate(x) for x in grid_r])))

    grid_b = np.linspace(0.0, 1.0, 101)
    got_b = cramer_rate_k1(EntryLaw("bernoulli", (0.5, 0.0, 1.0)), grid_b).rate
    err_b = float(np.max(np.abs(got_b - [bernoulli_rate(x) for x in grid_b])))

    elapsed = time.perf_counter() - start
    ok = err_r <= 1e-6 and err_b <= 1e-6 and elapsed < 1.0
    assert report(9, "Cramer closed-form match", ok,
                  f"max err {max(err_r, err_b):.2e}, {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "clt.ini"
    out = tmp_path / "out.json"
    cfg.write_text(
        "[run]\nmaster_seed = 24301\noutput = %s\n\n"
        "[ensemble]\nmodel = anderson\nd_law = gaussian(0,1)\n\n"
        "[clt]\nk_list = 1,3\nn = 256\ntrials = 2048\nreplicas = 20000\n"
        % out)
    start = time.perf_counter()
    rc1 = cli_main(["clt", "--config", str(cfg), "--workers", "1"])
    first = out.read_bytes()
    rc2 = cli_main(["clt", "--config", str(cfg), "--workers", "8"])
    second = out.read_bytes()
    elapsed = time.perf_counter() - start
    ok = rc1 == 0 and rc2 == 0 and first == second
    assert report(10, "CLI determinism across worker counts", ok,
                  f"{len(first)} bytes, {elapsed:.1f}s")
