import math
import os

import numpy as np
import pytest

from conftest import log_mgf_quadrature
from tritrace.deviations import (
    RateEstimate,
    _golden_max,
    cramer_rate_k1,
    derive_delta_list,
    mdp_check,
)
from tritrace.ensembles import EnsembleSpec, EntryLaw
from tritrace.errors import DegenerateRateError, InvalidArgumentError
from tritrace.stats import boundary_bound, boundary_gap_samples


def rademacher_rate(x):
    if abs(x) > 1.0:
        return math.inf
    if abs(x) == 1.0:
        return math.log(2.0)
    return 0.5 * (1 + x) * math.log1p(x) + 0.5 * (1 - x) * math.log1p(-x)


class TestCramerRate:
    def test_rate_vanishes_at_mean(self):
        result = cramer_rate_k1(EntryLaw.rademacher(), [0.0])
        assert abs(result.rate[0]) <= 1e-10

    def test_rademacher_half(self):
        result = cramer_rate_k1(EntryLaw.rademacher(), [0.5])
        assert result.rate[0] == pytest.approx(0.13081, abs=5e-6)
        assert result.rate[0] == pytest.approx(rademacher_rate(0.5), abs=1e-9)

    def test_bernoulli_endpoint_is_log_two(self):
        result = cramer_rate_k1(EntryLaw.bernoulli(0.5, 0.0, 1.0), [1.0])
        assert result.rate[0] == pytest.approx(math.log(2.0), abs=1e-9)
        assert not result.warnings

    def test_closed_form_grid_match(self):
        grid = np.linspace(-0.98, 0.98, 101)
        result = cramer_rate_k1(EntryLaw.rademacher(), grid)
        closed = np.array([rademacher_rate(x) for x in grid])
        assert np.max(np.abs(result.rate - closed)) <= 1e-6

    def test_convex_nonnegative_zero_at_mean(self):
        law = EntryLaw.bernoulli(0.3, -1.0, 2.0)
        grid = np.linspace(-0.95, 1.95, 59)
        result = cramer_rate_k1(law, grid)
        assert np.all(result.rate >= 0.0)
        second = np.diff(result.rate, 2)
        assert np.all(second >= -1e-9)
        at_mean = cramer_rate_k1(law, [law.mean]).rate[0]
        assert abs(at_mean) <= 1e-10

    def test_outside_support_flagged_infinite(self):
        result = cramer_rate_k1(EntryLaw.uniform(-1, 1), [-2.0, 0.0, 3.0])
        assert math.isinf(result.rate[0]) and math.isinf(result.rate[2])
        assert np.isfinite(result.rate[1])

    def test_unbounded_law_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cramer_rate_k1(EntryLaw.gaussian(0, 1), [0.0])

    def test_quadrature_matches_closed_form(self):
        # the Legendre transform of the quadrature oracle, on the same search
        grid = np.linspace(-0.8, 0.8, 33)
        for law in (EntryLaw.uniform(-1.0, 1.0), EntryLaw.rademacher(),
                    EntryLaw.bernoulli(0.4, -1.0, 1.0)):
            closed = cramer_rate_k1(law, grid).rate
            quad = [max(_golden_max(lambda t, x=x: t * x - log_mgf_quadrature(law, t),
                                    -50.0, 50.0)[1], 0.0) for x in grid]
            assert np.max(np.abs(closed - quad)) < 1e-9

    def test_wide_uniform_rates_are_finite_and_scale(self):
        # log E exp(tX) once overflowed in expm1 for widths above ~14.2 at t=50;
        # scaling: I_{LX}(x) = I_X(x/L), with the tilt range scaled by L
        assert EntryLaw.uniform(0.0, 20.0).log_mgf(50.0) == pytest.approx(1000.0 - math.log(1000.0))
        assert EntryLaw.uniform(0.0, 20.0).log_mgf(-50.0) == pytest.approx(-math.log(1000.0))
        x = np.linspace(-18.0, 18.0, 37)
        wide = cramer_rate_k1(EntryLaw.uniform(-20.0, 20.0), x).rate
        unit = cramer_rate_k1(EntryLaw.uniform(-1.0, 1.0), x / 20.0, t_max=1000.0).rate
        assert np.all(np.isfinite(wide))
        np.testing.assert_allclose(wide, unit, rtol=1e-9, atol=1e-12)

    def test_support_too_wide_for_the_tilts_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="too wide"):
            cramer_rate_k1(EntryLaw.uniform(-1e307, 1e307), [0.0])
        with pytest.raises(InvalidArgumentError, match="too wide"):
            cramer_rate_k1(EntryLaw.uniform(0.0, 1.0), [0.5], t_max=math.inf)

    def test_boundary_hit_warning(self):
        # at the support edge of a biased coin the optimal tilt diverges;
        # a small cap leaves visible slope and must be reported
        result = cramer_rate_k1(EntryLaw.bernoulli(0.3, 0.0, 1.0), [1.0], t_max=5.0)
        assert result.warnings
        assert result.rate[0] < math.log(1.0 / 0.3)

    def test_mean_grid_constant_law(self):
        result = cramer_rate_k1(EntryLaw.constant(2.0), [2.0, 2.5])
        assert abs(result.rate[0]) <= 1e-10
        assert math.isinf(result.rate[1])


class TestMdpCheck:
    def test_zero_threshold_trivial(self):
        spec = EnsembleSpec.anderson()
        out = mdp_check(spec, 1, 0.5, [64], [0.0], 256, 5, dk_replicas=5000)
        assert out[0].tail_prob == 1.0
        assert out[0].empirical_rate == 0.0
        assert out[0].predicted_rate == 0.0

    def test_degenerate_diagonal_rejected(self):
        spec = EnsembleSpec.anderson(EntryLaw.constant(0.0))
        with pytest.raises(DegenerateRateError):
            mdp_check(spec, 1, 0.5, [64], [0.5], 256, 5, dk_replicas=5000)

    def test_degenerate_diagonal_rejected_with_workers(self):
        # D_k is estimated beside the first size's blocks, so the error comes
        # after them, with every child reaped
        spec = EnsembleSpec.anderson(EntryLaw.constant(0.0))
        with pytest.raises(DegenerateRateError):
            mdp_check(spec, 1, 0.5, [64], [0.5], 2100, 5, workers=2, dk_replicas=5000)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("delta_list", [None, [0.3, 0.9]], ids=["derived", "given"])
    @pytest.mark.parametrize("d_law, k", [(EntryLaw.rademacher(), 1),
                                          (EntryLaw.uniform(-1.0, 1.0), 2)],
                             ids=["rademacher-k1", "uniform-k2"])
    def test_workers_do_not_change_results(self, d_law, k, delta_list):
        # three blocks per size; D_k overlaps only the first of the two sizes
        spec = EnsembleSpec.anderson(d_law)
        one = mdp_check(spec, k, 0.5, [64, 100], delta_list, 2100, 5, dk_replicas=5000)
        assert len(one) == 2 * (4 if delta_list is None else 2)
        for workers in (2, 3):
            assert mdp_check(spec, k, 0.5, [64, 100], delta_list, 2100, 5, workers=workers,
                             dk_replicas=5000) == one, workers

    def test_argument_checks_run_before_any_fork(self, monkeypatch):
        def fork():
            raise AssertionError("forked before the argument checks")

        monkeypatch.setattr(os, "fork", fork)
        not_iid = EnsembleSpec.birth_death_kernel(variant="conductance")
        with pytest.raises(InvalidArgumentError, match="i.i.d.-type"):
            mdp_check(not_iid, 1, 0.5, [64], None, 2100, 5, workers=2)
        anderson = EnsembleSpec.anderson()
        with pytest.raises(InvalidArgumentError, match="replicas must be >= 2"):
            mdp_check(anderson, 1, 0.5, [64], None, 2100, 5, workers=2, dk_replicas=1)
        with pytest.raises(InvalidArgumentError, match="k must be >= 1"):
            mdp_check(anderson, 0, 0.5, [64], None, 2100, 5, workers=2)
        with pytest.raises(InvalidArgumentError, match="n too small"):
            mdp_check(anderson, 8, 0.5, [64, 4], None, 2100, 5, workers=2)

    def test_unbounded_spec_rejected(self):
        spec = EnsembleSpec.anderson(EntryLaw.gaussian(0, 1))
        with pytest.raises(InvalidArgumentError):
            mdp_check(spec, 1, 0.5, [64], [0.5], 256, 5)

    def test_nu_range_checked(self):
        spec = EnsembleSpec.anderson()
        for nu in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidArgumentError):
                mdp_check(spec, 1, nu, [64], [0.5], 256, 5, dk_replicas=5000)

    def test_feasible_rate_recovery_smoke(self):
        # n^nu * rate ~ 6.4: tails countable; the strict 25% recovery check
        # runs at full scale in the acceptance suite
        spec = EnsembleSpec.anderson()
        delta = math.sqrt(2.0 * 0.4)
        out = mdp_check(spec, 1, 0.5, [400], [delta], 100_000, 99,
                        dk_replicas=100_000)[0]
        assert out.tail_prob > 0
        assert np.isfinite(out.empirical_rate)
        assert abs(out.empirical_rate - out.predicted_rate) <= 0.35 * out.predicted_rate
        assert "low-count" in out.flags  # ~8 expected events in 1e5 draws

    def test_rate_not_trending_in_n(self):
        spec = EnsembleSpec.anderson()
        delta = math.sqrt(2.0 * 0.3)
        out = mdp_check(spec, 1, 0.5, [100, 200, 400], [delta], 100_000, 7,
                        dk_replicas=100_000)
        rates = [e.empirical_rate for e in out]
        assert all(np.isfinite(rates))
        spread = (max(rates) - min(rates)) / np.mean(rates)
        assert spread <= 0.3

    def test_auto_delta_lands_in_band(self):
        deltas = derive_delta_list(2.0)
        rates = [d ** 2 / 4.0 for d in deltas]
        assert rates == pytest.approx([0.3, 0.5, 0.8, 1.2])
        with pytest.raises(DegenerateRateError):
            derive_delta_list(0.0)

    def test_rate_estimate_validation(self):
        with pytest.raises(InvalidArgumentError):
            RateEstimate(n=10, nu=0.5, delta=1.0, tail_prob=1.5, empirical_rate=0.0,
                         predicted_rate=0.5, trials=10)
        with pytest.raises(InvalidArgumentError):
            RateEstimate(n=10, nu=0.5, delta=1.0, tail_prob=0.5, empirical_rate=-1.0,
                         predicted_rate=0.5, trials=10)


class TestExponentialEquivalence:
    def test_boundary_statistic_dies_past_the_bound(self):
        # the gap between trace and summand sum is deterministically bounded;
        # once sqrt(n / lambda_n) * delta exceeds that bound the tail
        # probability is exactly zero, which is the finite-n signature of
        # exponential equivalence
        spec = EnsembleSpec.anderson()
        k, n, nu = 3, 200, 0.5
        bound = boundary_bound(spec, k)
        gaps = boundary_gap_samples(spec, n, k, 400, 12)
        lam = n ** (-nu)
        scaled = math.sqrt(lam / n) * np.abs(gaps)
        crossing = math.sqrt(lam / n) * bound
        assert np.max(np.abs(gaps)) <= bound + 1e-9
        assert np.mean(scaled >= 1.000001 * crossing) == 0.0
        # below the realized maximum the tail is still populated
        assert np.mean(scaled >= 0.5 * np.max(scaled)) > 0.0
