import math
import os
import select
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import exhaustive_dk, naive_summand, site_summand
from tritrace import stats
from tritrace.circuits import (
    count_circuits_bruteforce,
    enumerate_types,
    trace_power_expansion,
    traces_for_k_list,
    traces_for_rows,
)
from tritrace.ensembles import (
    EnsembleSpec,
    EntryLaw,
    EntryWindow,
    counts_diagonal_signs,
    diagonal_sign_sums,
    sample_matrix,
    sample_matrix_chunks,
    sample_window,
    trial_seed_sequence,
    window_to_matrix,
)
from tritrace.errors import DegenerateTargetError, InvalidArgumentError, TriTraceError
from tritrace.stats import (
    CovarianceTarget,
    boundary_bound,
    boundary_gap_samples,
    covariance_target,
    dependence_range,
    dk_iid,
    exact_trace_mean,
    ks_distance_to_normal,
    mc_traces,
    normality_report,
)


class TestDependenceRange:
    def test_values(self):
        assert dependence_range(3, symmetric=False).m_k == 1
        assert dependence_range(3, symmetric=True).m_k == 2
        assert dependence_range(4, symmetric=False).m_k == 2
        assert dependence_range(1, symmetric=True).m_k == 1

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidArgumentError):
            dependence_range(0, symmetric=False)


class TestSiteSummand:
    def test_all_ones_k3(self):
        w = EntryWindow(first_index=2, a=np.ones(4), d=np.ones(4), b=np.ones(4))
        assert site_summand(w, 2, 3, enumerate_types(3)) == pytest.approx(7.0)

    def test_all_ones_k4(self):
        w = EntryWindow(first_index=2, a=np.ones(5), d=np.ones(5), b=np.ones(5))
        assert site_summand(w, 2, 4, enumerate_types(4)) == pytest.approx(19.0)

    def test_k1_is_diagonal_entry(self):
        w = EntryWindow(first_index=3, a=np.ones(3), d=np.array([4.0, 5.0, 6.0]), b=np.ones(3))
        assert site_summand(w, 4, 1, enumerate_types(1)) == pytest.approx(5.0)

    def test_k1_summands_form_no_edge_products(self):
        # k=1's one class reads only the diagonal, so edge products that
        # would overflow are never formed
        d = np.random.default_rng(3).normal(size=(4, 6))
        huge = np.full((4, 6), 1e200)
        with np.errstate(over="raise"):
            x = stats._summand_block(huge, d, huge, 2, range(2, 7), 1, enumerate_types(1))
        assert x.tobytes() == d[:, :5].tobytes()

    def test_window_too_short(self):
        w = EntryWindow(first_index=2, a=np.ones(2), d=np.ones(2), b=np.ones(2))
        with pytest.raises(InvalidArgumentError):
            site_summand(w, 3, 4, enumerate_types(4))
        with pytest.raises(InvalidArgumentError):
            site_summand(w, 1, 2, enumerate_types(2))

    @given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30)
    def test_matches_naive_product_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        first, length = 2, k // 2 + 1
        a = rng.uniform(-1.5, 1.5, length)
        d = rng.uniform(-1.5, 1.5, length)
        b = rng.uniform(-1.5, 1.5, length)
        w = EntryWindow(first_index=first, a=a, d=d, b=b)
        # the naive oracle indexes entries absolutely: a_i pairs with b_i
        a_map = {first - 1 + t: a[t] for t in range(length)}
        b_map = {first + t: b[t] for t in range(length)}
        d_map = {first + t: d[t] for t in range(length)}
        expected = naive_summand(count_circuits_bruteforce(k), a_map, d_map, b_map, first, k)
        assert site_summand(w, first, k, enumerate_types(k)) == pytest.approx(expected, rel=1e-12)


# Every model and variant, with each of the five entry laws somewhere.
ROW_SPECS = {
    "anderson-rademacher": EnsembleSpec.anderson(),
    "anderson-bernoulli": EnsembleSpec.anderson(EntryLaw.bernoulli(0.3, -2.0, 5.0)),
    "beta_hermite": EnsembleSpec.beta_hermite(2.0),
    "hatano_nelson-uniform": EnsembleSpec.hatano_nelson(),
    "generic_iid": EnsembleSpec.generic_iid(EntryLaw.constant(0.7), EntryLaw.gaussian(0.5, 1.5),
                                            EntryLaw.uniform(-1.0, 2.0)),
    "generic_iid-symmetric": EnsembleSpec.generic_iid(EntryLaw.gaussian(0.0, 1.0),
                                                      EntryLaw.rademacher(), symmetric=True),
    # Rademacher and Bernoulli on the slot whose first column is a_0 = 0
    "generic_iid-rademacher-a": EnsembleSpec.generic_iid(EntryLaw.rademacher(),
                                                         EntryLaw.uniform(-1.0, 1.0),
                                                         EntryLaw.gaussian(0.0, 1.0)),
    "generic_iid-symmetric-rademacher-a": EnsembleSpec.generic_iid(
        EntryLaw.rademacher(), EntryLaw.gaussian(0.0, 1.0), symmetric=True),
    "hatano_nelson-bernoulli-a": EnsembleSpec.hatano_nelson(EntryLaw.bernoulli(0.4, 0.5, 1.5)),
    "birth_death_q": EnsembleSpec.birth_death_q(),
    "birth_death_q-symmetric": EnsembleSpec.birth_death_q(symmetric=True),
    "kernel-v": EnsembleSpec.birth_death_kernel(),
    "kernel-conductance": EnsembleSpec.birth_death_kernel(variant="conductance"),
}


def assert_chunks_match_sample_matrix(spec, n, trials, rows):
    seen = []
    for chunk, sub, diag, sup in sample_matrix_chunks(spec, n, 41, trials, rows):
        assert len(chunk) <= rows and diag.shape == (len(chunk), n)
        for r, t in enumerate(chunk):
            matrix = sample_matrix(spec, n, trial_seed_sequence(41, t))
            np.testing.assert_array_equal(sub[r], matrix.sub)
            np.testing.assert_array_equal(diag[r], matrix.diag)
            np.testing.assert_array_equal(sup[r], matrix.sup)
        seen.extend(chunk)
    assert seen == list(trials)


class TestMcTraces:
    @pytest.mark.parametrize("n", [2, 3, 256, 257, 1000])
    @pytest.mark.parametrize("name", ROW_SPECS)
    def test_row_chunks_match_per_trial_path(self, name, n):
        # k spans both routes; the trial range starts off zero and, from n=256
        # on, spans two row chunks
        spec = ROW_SPECS[name]
        k_list = [k for k in (1, 4, 7, 8, 12) if k // 2 + 1 <= n]
        lo, hi = 5, (25 if n == 1000 else 75)
        got = stats._trace_block(spec, n, k_list, 41, lo, hi)
        want = [traces_for_k_list(sample_matrix(spec, n, trial_seed_sequence(41, t)), k_list)
                for t in range(lo, hi)]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 257])
    @pytest.mark.parametrize("name", ROW_SPECS)
    def test_chunk_rows_match_sample_matrix(self, name, n):
        assert_chunks_match_sample_matrix(ROW_SPECS[name], n, range(5, 25), 7)

    @pytest.mark.parametrize("name", ROW_SPECS)
    @settings(max_examples=12, deadline=None)
    @given(lo=st.integers(0, 2 ** 32 - 64), count=st.integers(1, 24), rows=st.integers(1, 30),
           n=st.integers(2, 41))
    @example(lo=0, count=5, rows=1, n=2)        # one trial per chunk
    @example(lo=3, count=4, rows=9, n=17)       # one chunk, larger than the range
    @example(lo=7, count=10, rows=4, n=16)      # the last chunk is short
    def test_chunk_rows_match_sample_matrix_hypothesis(self, name, lo, count, rows, n):
        assert_chunks_match_sample_matrix(ROW_SPECS[name], n, range(lo, lo + count), rows)

    def test_next_chunk_reuses_the_buffers(self):
        # a chunk's arrays are only valid until the next chunk is requested;
        # a caller that keeps one must copy it
        spec = ROW_SPECS["anderson-rademacher"]
        chunks = sample_matrix_chunks(spec, 9, 41, range(8), 4)
        _, _, first, _ = next(chunks)
        kept = first.copy()
        _, _, second, _ = next(chunks)
        assert np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(kept, second)
        for r in range(4):
            np.testing.assert_array_equal(
                kept[r], sample_matrix(spec, 9, trial_seed_sequence(41, r)).diag)

    def test_trial_indices_must_fit_32_bits(self):
        spec = ROW_SPECS["generic_iid-symmetric"]
        last = range(2 ** 32 - 2, 2 ** 32)
        ((chunk, sub, diag, sup),) = sample_matrix_chunks(spec, 5, 9, last, 4)
        for r, t in enumerate(last):
            matrix = sample_matrix(spec, 5, trial_seed_sequence(9, t))
            np.testing.assert_array_equal(diag[r], matrix.diag)
        with pytest.raises(InvalidArgumentError, match="2\\*\\*32"):
            next(sample_matrix_chunks(spec, 5, 9, range(2 ** 32 - 1, 2 ** 32 + 1), 4))
        with pytest.raises(InvalidArgumentError, match="2\\*\\*32"):
            mc_traces(spec, 5, (1,), 2 ** 32 + 1, 9)

    def test_non_finite_draw_is_an_error_on_both_paths(self):
        # sigma * z overflows to +-inf for |z| > 1.8
        spec = EnsembleSpec.generic_iid(EntryLaw.constant(1.0), EntryLaw.gaussian(0.0, 1e308),
                                        symmetric=True)
        with pytest.raises(InvalidArgumentError, match="finite"):
            sample_matrix(spec, 200, trial_seed_sequence(5, 0))
        with pytest.raises(InvalidArgumentError, match="finite"):
            mc_traces(spec, 200, (1,), 4, 5)

    def test_zero_diagonal_anderson_is_surely_zero(self):
        spec = EnsembleSpec.anderson(EntryLaw.constant(0.0))
        samples = mc_traces(spec, 50, (1,), 64, 3, alpha=0.0, epsilon=0.0)
        assert np.all(samples == 0.0)

    def test_rademacher_k1_variance_near_one(self):
        spec = EnsembleSpec.anderson()
        samples = mc_traces(spec, 400, (1,), 4000, 11, alpha=0.0, epsilon=0.0)
        var = samples.var(ddof=1)
        assert abs(var - 1.0) < 4 * math.sqrt(2.0 / 4000)

    def test_exact_centering_for_odd_symmetric(self):
        assert exact_trace_mean(EnsembleSpec.anderson(), 100, 3) == 0.0
        assert exact_trace_mean(EnsembleSpec.anderson(), 100, 2) is None
        assert exact_trace_mean(EnsembleSpec.anderson(EntryLaw.uniform(0, 1)), 100, 3) is None
        assert exact_trace_mean(EnsembleSpec.birth_death_q(), 100, 3) is None

    def test_workers_do_not_change_results(self):
        # 2100 trials are three blocks, the last one short; 8 workers are capped at 3
        spec = EnsembleSpec.anderson(EntryLaw.gaussian(0, 1))
        one = mc_traces(spec, 64, (1, 2), 2100, 5, alpha=0.0, epsilon=0.0, workers=1)
        for workers in (2, 3, 8):
            many = mc_traces(spec, 64, (1, 2), 2100, 5, alpha=0.0, epsilon=0.0, workers=workers)
            assert one.tobytes() == many.tobytes(), workers

    @staticmethod
    def _patch_blocks(monkeypatch, in_parent, in_child):
        """Make ``_trace_block`` first call ``in_parent(lo)`` in this process and
        ``in_child(lo)`` in a forked worker, for a block starting at ``lo``.
        Workers claim blocks as they free up, so which process evaluates a
        given block is not fixed: the hooks go by process, not by block."""
        block = stats._trace_block
        parent = os.getpid()

        def patched(spec, n, k_list, master_seed, lo, hi):
            (in_parent if os.getpid() == parent else in_child)(lo)
            return block(spec, n, k_list, master_seed, lo, hi)

        monkeypatch.setattr(stats, "_trace_block", patched)

    @pytest.fixture
    def child_started(self):
        """``(started, await_child)``: a child calls ``started()`` as it begins a
        block, and ``await_child()`` here returns once one has, or after 30 s.
        A parent that awaits a child in its blocks cannot claim every block
        before a child claims one."""
        rfd, wfd = os.pipe()
        yield (lambda: os.write(wfd, b"x")), (lambda: select.select([rfd], [], [], 30))
        os.close(rfd)
        os.close(wfd)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _run(self, workers):
        spec = EnsembleSpec.anderson(EntryLaw.gaussian(0, 1))
        return mc_traces(spec, 64, (1, 2), 2100, 5, workers=workers)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_child_error_keeps_its_type_and_message(self, monkeypatch, child_started, workers):
        started, await_child = child_started

        def fail(lo):
            started()
            raise InvalidArgumentError(f"block {lo} failed")

        self._patch_blocks(monkeypatch, lambda lo: await_child(), fail)
        with pytest.raises(InvalidArgumentError, match="^block (0|1024|2048) failed$"):
            self._run(workers)
        self._assert_no_child_left()

    def test_child_exit_without_result_names_its_status(self, monkeypatch, child_started):
        started, await_child = child_started

        def leave(lo):
            started()
            os._exit(3)

        self._patch_blocks(monkeypatch, lambda lo: await_child(), leave)
        with pytest.raises(TriTraceError, match="exited with status 3 without a result"):
            self._run(2)
        self._assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parent_error_kills_and_reaps_children(self, monkeypatch, workers):
        def fail(lo):
            raise InvalidArgumentError("own block failed")

        # each child holds one of the three blocks for a minute, so this process
        # claims at least one, and the first it claims fails
        self._patch_blocks(monkeypatch, fail, lambda lo: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(InvalidArgumentError, match="own block failed"):
            self._run(workers)
        assert time.monotonic() - start < 30
        self._assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_lead_error_kills_and_reaps_children(self, monkeypatch, workers):
        def fail():
            raise InvalidArgumentError("lead failed")

        self._patch_blocks(monkeypatch, lambda lo: None, lambda lo: time.sleep(60))
        spec = EnsembleSpec.anderson(EntryLaw.gaussian(0, 1))
        start = time.monotonic()
        with pytest.raises(InvalidArgumentError, match="^lead failed$"):
            stats._raw_traces(spec, 64, (1, 2), 2100, 5, workers, lead=fail)
        assert time.monotonic() - start < 30
        self._assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lead_result_is_returned_beside_the_traces(self, workers):
        spec = EnsembleSpec.anderson(EntryLaw.gaussian(0, 1))
        raw, lead = stats._raw_traces(spec, 64, (1, 2), 2100, 5, workers, lead=lambda: "led")
        plain, none = stats._raw_traces(spec, 64, (1, 2), 2100, 5, 1)
        assert (lead, none) == ("led", None)
        assert raw.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_every_block_is_evaluated_exactly_once(self, monkeypatch, tmp_path, workers):
        # 11 blocks, the last short: every process appends the blocks it
        # evaluates to one log, in single writes that O_APPEND keeps whole
        log = os.open(tmp_path / "blocks.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def record(lo):
            os.write(log, f"{lo}\n".encode())

        try:
            self._patch_blocks(monkeypatch, record, record)
            mc_traces(EnsembleSpec.anderson(), 8, (1, 3), 10 * 1024 + 5, 5, workers=workers)
        finally:
            os.close(log)
        starts = sorted(int(line) for line in (tmp_path / "blocks.log").read_text().split())
        assert starts == list(range(0, 10 * 1024 + 5, 1024))
        self._assert_no_child_left()

    def test_workers_need_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(InvalidArgumentError, match="os.fork"):
            self._run(2)
        assert self._run(1).shape == (2100, 2)

    def test_validation(self):
        spec = EnsembleSpec.anderson()
        with pytest.raises(InvalidArgumentError):
            mc_traces(spec, 50, (1,), 1, 0)
        with pytest.raises(InvalidArgumentError):
            mc_traces(spec, 2, (8,), 16, 0)
        with pytest.raises(InvalidArgumentError):
            mc_traces(spec, 50, (), 16, 0)


RADEMACHER = EntryLaw.rademacher()
# Every kind of spec the sign-count route serves: a Rademacher diagonal that
# is a stream of its own, with bounded laws elsewhere.
SIGN_COUNT_SPECS = {
    "anderson": EnsembleSpec.anderson(),
    "hatano_nelson": EnsembleSpec.hatano_nelson(d_law=RADEMACHER),
    "generic_iid": EnsembleSpec.generic_iid(EntryLaw.uniform(0.5, 1.5), RADEMACHER,
                                            EntryLaw.bernoulli(0.3, 1.0, 2.0)),
    "generic_iid-symmetric": EnsembleSpec.generic_iid(EntryLaw.uniform(-1.0, 1.0), RADEMACHER,
                                                      symmetric=True),
    # every stream Rademacher: the route must read the diagonal's stream
    "generic_iid-all-rademacher": EnsembleSpec.generic_iid(RADEMACHER, RADEMACHER, RADEMACHER),
}
# Specs left to the float route at k=1.
FLOAT_ROUTE_SPECS = {
    # the same values through a different draw route
    "bernoulli-half": EnsembleSpec.anderson(EntryLaw.bernoulli(0.5, -1.0, 1.0)),
    "birth_death_q": EnsembleSpec.birth_death_q(),
    "birth_death_q-symmetric": EnsembleSpec.birth_death_q(symmetric=True),
    "kernel-v": EnsembleSpec.birth_death_kernel(),
    "kernel-conductance": EnsembleSpec.birth_death_kernel(variant="conductance"),
    "beta_hermite": EnsembleSpec.beta_hermite(2.0),
    # an unbounded off-diagonal law can draw a non-finite entry, which the
    # float route rejects
    "generic_iid-gaussian-a": EnsembleSpec.generic_iid(EntryLaw.gaussian(0.0, 1.0), RADEMACHER,
                                                       symmetric=True),
}


def float_route(spec, n, k_list, trials, rows, master_seed=41):
    """Raw traces by the general route: sampled rows, then traces_for_rows."""
    return np.concatenate([
        traces_for_rows(sub * sup, diag, k_list)
        for _, sub, diag, sup in sample_matrix_chunks(spec, n, master_seed, trials, rows)])


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not run here")


class TestSignCountRoute:
    @pytest.mark.parametrize("n", [2, 3, 257, 400, 401])
    @pytest.mark.parametrize("name", SIGN_COUNT_SPECS)
    def test_traces_equal_the_float_route(self, name, n, monkeypatch):
        spec = SIGN_COUNT_SPECS[name]
        assert counts_diagonal_signs(spec)
        # starts off zero; 13-trial chunks cross boundaries and end short
        trials = range(37, 337)
        want = float_route(spec, n, (1,), trials, 13)
        got = diagonal_sign_sums(spec, n, 41, trials, 13)
        assert got.tobytes() == want[:, 0].tobytes()
        if n == 2:   # zero traces occur, and are +0.0 on both routes
            assert (got == 0).any() and not np.signbit(got[got == 0]).any()
        # _trace_block takes the route at its own chunk size, for repeated
        # powers too, and samples no matrix
        monkeypatch.setattr(stats, "sample_matrix_chunks", _refuse)
        block = stats._trace_block(spec, n, (1, 1), 41, trials.start, trials.stop)
        assert block.tobytes() == np.repeat(want, 2, axis=1).tobytes()

    @pytest.mark.parametrize("name", SIGN_COUNT_SPECS)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), lo=st.integers(0, 2 ** 32 - 64),
           count=st.integers(1, 40), rows=st.integers(1, 16), n=st.integers(2, 70))
    @example(seed=0, lo=0, count=3, rows=1, n=2)
    def test_traces_equal_the_float_route_hypothesis(self, name, seed, lo, count, rows, n):
        spec = SIGN_COUNT_SPECS[name]
        trials = range(lo, lo + count)
        want = float_route(spec, n, (1,), trials, rows, seed)[:, 0]
        assert diagonal_sign_sums(spec, n, seed, trials, rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec,k_list", [
        *((SIGN_COUNT_SPECS["anderson"], k_list) for k_list in ((1, 2), (3, 1), (1, 1, 8))),
        *((SIGN_COUNT_SPECS["generic_iid"], k_list) for k_list in ((2,), (1, 4))),
        *((spec, (1,)) for spec in FLOAT_ROUTE_SPECS.values()),
    ])
    def test_route_does_not_engage(self, spec, k_list, monkeypatch):
        monkeypatch.setattr(stats, "diagonal_sign_sums", _refuse)
        got = stats._trace_block(spec, 9, k_list, 41, 3, 20)
        np.testing.assert_array_equal(got, float_route(spec, 9, k_list, range(3, 20), 20))

    def test_non_finite_off_diagonal_still_raises_at_k1(self):
        # sigma * z overflows to +-inf for |z| > 1.8; the float route's check runs
        spec = EnsembleSpec.generic_iid(EntryLaw.gaussian(0.0, 1e308), RADEMACHER, symmetric=True)
        assert not counts_diagonal_signs(spec)
        with pytest.raises(InvalidArgumentError, match="finite"):
            mc_traces(spec, 200, (1,), 4, 5)

    def test_validation(self):
        spec = SIGN_COUNT_SPECS["anderson"]
        with pytest.raises(InvalidArgumentError, match="n must be"):
            diagonal_sign_sums(spec, 1, 41, range(4), 4)
        with pytest.raises(InvalidArgumentError, match="n must be"):
            mc_traces(spec, 1, (1,), 4, 5)
        with pytest.raises(InvalidArgumentError, match="2\\*\\*32"):
            diagonal_sign_sums(spec, 5, 9, range(2 ** 32 - 1, 2 ** 32 + 1), 4)


class TestDkIid:
    def test_k1_gaussian_matches_entry_variance(self):
        spec = EnsembleSpec.generic_iid(EntryLaw.uniform(0.5, 1.5),
                                        EntryLaw.gaussian(0, 1.5),
                                        EntryLaw.uniform(0.5, 1.5))
        est = dk_iid(spec, 1, 100_000, 7)
        assert abs(est.value - 2.25) <= 4 * est.standard_error

    def test_k1_rademacher_is_one(self):
        est = dk_iid(EnsembleSpec.anderson(), 1, 100_000, 21)
        assert abs(est.value - 1.0) <= 4 * est.standard_error

    def test_k2_rademacher_exactly_degenerate(self):
        # the squared diagonal is constant, so the summand is constant
        est = dk_iid(EnsembleSpec.anderson(), 2, 5000, 3)
        assert est.value == 0.0
        assert est.standard_error == 0.0
        oracle = exhaustive_dk(2, est.dependence.m_k, EntryLaw.rademacher().atoms)
        assert oracle == pytest.approx(0.0, abs=1e-12)

    def test_k3_rademacher_matches_exhaustive_support(self):
        est = dk_iid(EnsembleSpec.anderson(), 3, 200_000, 5)
        oracle = exhaustive_dk(3, est.dependence.m_k, EntryLaw.rademacher().atoms)
        assert oracle == pytest.approx(49.0)
        assert abs(est.value - oracle) <= 4 * est.standard_error

    def test_bernoulli_diagonal_matches_exhaustive_support(self):
        law = EntryLaw.bernoulli(0.25, -1.0, 2.0)
        spec = EnsembleSpec.anderson(law)
        est = dk_iid(spec, 2, 300_000, 12)
        oracle = exhaustive_dk(2, est.dependence.m_k, law.atoms)
        assert abs(est.value - oracle) <= 4 * est.standard_error

    def test_rejects_non_iid_specs(self):
        with pytest.raises(InvalidArgumentError):
            dk_iid(EnsembleSpec.beta_hermite(2.0), 1, 100, 0)
        with pytest.raises(InvalidArgumentError):
            dk_iid(EnsembleSpec.birth_death_kernel(variant="conductance"), 1, 100, 0)
        with pytest.raises(InvalidArgumentError):
            dk_iid(EnsembleSpec.anderson(), 1, 1, 0)


class TestModelVarianceOracles:
    def test_kernel_v_variant_k2_closed_form(self):
        # d == 0 and the k=2 summand is 2 a_i b_i = 2 (1 - V_{i+1}) V_i for
        # uniform environment V: Var = 4 (1/9 - 1/16) = 7/36, lag-1
        # covariance = 4 (1/24 - 1/16) = -1/12, so the limit is
        # 7/36 - 2/12 = 1/36
        spec = EnsembleSpec.birth_death_kernel()
        est = dk_iid(spec, 2, 400_000, 17)
        assert abs(est.value - 1.0 / 36.0) <= 4 * est.standard_error
        samples = mc_traces(spec, 2000, (2,), 4000, 41, alpha=0.0, epsilon=0.0)[:, 0]
        var = samples.var(ddof=1)
        assert var == pytest.approx(1.0 / 36.0, rel=0.15)

    def test_hatano_nelson_k2_closed_form(self):
        # independent site-local streams: no lag covariance; the limit is
        # Var(d^2) + 4 Var(a b) = 4/45 + 25/36 = 47/60
        spec = EnsembleSpec.hatano_nelson()
        est = dk_iid(spec, 2, 400_000, 23)
        assert abs(est.value - 47.0 / 60.0) <= 4 * est.standard_error
        samples = mc_traces(spec, 2000, (2,), 4000, 42, alpha=0.0, epsilon=0.0)[:, 0]
        assert samples.var(ddof=1) == pytest.approx(47.0 / 60.0, rel=0.1)


class TestLambdaTarget:
    """Entries of the limiting covariance Lambda(k_i, k_j) from covariance_target."""

    def test_beta_ensemble_values(self):
        def entry(ki, kj, beta):
            return covariance_target((ki, kj), "beta_hermite", beta=beta).value[0, 1]

        assert covariance_target((2,), "beta_hermite", beta=2.0).value[0, 0] == pytest.approx(2.0)
        assert entry(1, 2, 0.7) == 0.0
        assert covariance_target((1,), "beta_hermite", beta=1.0).value[0, 0] == pytest.approx(2.0)
        assert entry(1, 3, 2.0) == pytest.approx(3.0)
        assert covariance_target((4,), "beta_hermite", beta=2.0).value[0, 0] == pytest.approx(36.0)

    def test_degenerate_limit_reproduces_beta_ensemble(self):
        # the growth limits of the beta ensemble: scale 1, off-diagonal
        # fluctuation variance 1/(2 beta), diagonal variance 2/beta
        beta = 1.7
        powers = (1, 2, 3, 4)
        closed = covariance_target(powers, "beta_hermite", beta=beta).value
        general = covariance_target(powers, "symmetric_degenerate", a=1.0,
                                    var_eta=1.0 / (2 * beta), var_zeta=2.0 / beta,
                                    alpha=0.5, epsilon=0.5).value
        for i in range(len(powers)):
            for j in range(len(powers)):
                assert general[i, j] == pytest.approx(closed[i, j], rel=1e-12)

    def test_odd_odd_below_critical_exponent_vanishes(self):
        val = covariance_target((3,), "symmetric_degenerate", a=1.0, var_eta=0.3,
                                var_zeta=0.9, alpha=0.5, epsilon=0.25).value[0, 0]
        assert val == 0.0

    def test_parameter_validation(self):
        degenerate = dict(a=1.0, var_eta=1.0, var_zeta=1.0, alpha=0.5)
        bad_calls = [
            lambda: covariance_target((2,), "beta_hermite"),
            lambda: covariance_target((2,), "beta_hermite", beta=0.0),
            lambda: covariance_target((2,), "symmetric_degenerate", epsilon=0.75, **degenerate),
            lambda: covariance_target((2,), "symmetric_degenerate", **degenerate),
            lambda: covariance_target((2,), "iid_mc", replicas=100),
            lambda: covariance_target((2,), "iid_mc", spec=EnsembleSpec.anderson()),
            lambda: covariance_target((2,), "nonsense"),
            lambda: covariance_target((0, 2), "beta_hermite", beta=1.0),
        ]
        for call in bad_calls:
            with pytest.raises(InvalidArgumentError):
                call()

    def test_iid_mc_diagonal_matches_dk(self):
        spec = EnsembleSpec.anderson()
        val = covariance_target((3,), "iid_mc", spec=spec, replicas=200_000, seed=9).value[0, 0]
        assert val == pytest.approx(49.0, rel=0.05)

    def test_iid_mc_cross_power_against_exhaustive(self):
        # joint law of (X_{1,i}, X_{3,i}) for Rademacher disorder:
        # X_1 = d_i, X_3 = 4 d_i + 3 d_{i+1}, lag covariances included
        spec = EnsembleSpec.anderson()
        val = covariance_target((1, 3), "iid_mc", spec=spec, replicas=400_000,
                                seed=2).value[0, 1]
        # same-site: cov(d_2, 4d_2+3d_3) = 4; lag 1: cov(d_2, 4d_3+3d_4) = 0
        # and cov(d_3, 4d_2+3d_3) = 3; lag 2 terms vanish
        expected = 4.0 + 3.0
        assert val == pytest.approx(expected, rel=0.05)

    def test_covariance_target_matrix(self):
        target = covariance_target((1, 2, 3), "beta_hermite", beta=2.0)
        assert target.source == "beta_hermite_formula"
        assert target.value[0, 1] == 0.0 and target.value[1, 2] == 0.0
        assert target.value[0, 2] == pytest.approx(3.0)
        with pytest.raises(InvalidArgumentError):
            CovarianceTarget(source="bogus", value=np.eye(2))
        with pytest.raises(InvalidArgumentError):
            CovarianceTarget(source="iid_window_formula",
                             value=np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestNormalityReport:
    def _target(self, values):
        return CovarianceTarget(source="iid_window_formula",
                                value=np.diag(np.asarray(values, dtype=float)))

    def test_standard_normal_fixture_passes_ks(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((10_000, 1))
        report = normality_report(samples, self._target([1.0]), k_list=(1,), n=100,
                                  scaling_exponents=(0.5,))
        assert report.ks_distance[0] < report.ks_critical_1pct
        assert abs(report.mean[0]) < 4 * report.mc_standard_errors["mean"][0]
        assert abs(report.variance[0] - 1.0) < 5 * report.mc_standard_errors["variance"][0]
        assert abs(report.skewness[0]) < 5 * report.mc_standard_errors["skewness"][0]
        assert abs(report.excess_kurtosis[0]) < 5 * report.mc_standard_errors["excess_kurtosis"][0]

    def test_constant_samples_exact_distance(self):
        # samples arrive pre-centered by contract, so a constant input is
        # compared as-is: the empirical CDF jumps 0 -> 1 at c
        c = 0.35
        samples = np.full((128, 1), c)
        report = normality_report(samples, self._target([1.0]), k_list=(2,), n=10,
                                  scaling_exponents=(0.5,))
        from scipy.special import ndtr
        expected = max(ndtr(c), 1.0 - ndtr(c))
        assert report.ks_distance[0] == pytest.approx(expected)

    def test_degenerate_target_raises(self):
        samples = np.random.default_rng(0).standard_normal((200, 1))
        with pytest.raises(DegenerateTargetError):
            normality_report(samples, self._target([0.0]), k_list=(2,), n=10,
                             scaling_exponents=(0.5,))

    def test_too_few_trials(self):
        with pytest.raises(InvalidArgumentError):
            normality_report(np.zeros((50, 1)), self._target([1.0]), k_list=(1,), n=10,
                             scaling_exponents=(0.5,))

    def test_covariance_diag_consistency(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((500, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
        report = normality_report(samples, self._target([1.0, 1.0]), k_list=(1, 2), n=10,
                                  scaling_exponents=(0.5, 0.5))
        assert np.allclose(np.diag(report.covariance), report.variance, rtol=1e-12)
        assert np.array_equal(report.covariance, report.covariance.T)
        payload = report.to_json_dict()
        assert payload["trials"] == 500

    def test_ks_helper_on_shifted_sample(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(5000) + 1.0
        assert ks_distance_to_normal(z) > 0.3


class TestBoundaryTerms:
    @pytest.mark.parametrize("spec,k", [
        (EnsembleSpec.anderson(), 3),
        (EnsembleSpec.anderson(), 4),
        (EnsembleSpec.birth_death_q(), 3),
    ])
    def test_summand_trace_identity_exact(self, spec, k):
        # gap == tail of per-class products over the last spans, computed
        # here with the naive oracle from the same realized window
        types = count_circuits_bruteforce(k)
        n = 30
        window = sample_window(spec, 1, n + k // 2, 123)
        matrix = window_to_matrix(window, n)
        # with first_index 1, window.a[t] holds the sub-diagonal entry a_t
        a_map = {t: window.a[t] for t in range(len(window))}
        d_map = {t + 1: window.d[t] for t in range(len(window))}
        b_map = {t + 1: window.b[t] for t in range(len(window))}
        tail = 0.0
        for (span, half_edges, loops), count in types.items():
            if span == 0:
                continue
            for i in range(n - span + 1, n + 1):
                term = float(count)
                for j, m in enumerate(half_edges):
                    term *= (a_map[i + j] * b_map[i + j]) ** m
                for j, e in enumerate(loops):
                    term *= d_map[i + j] ** e
                tail += term
        x = [site_summand(window, i, k, enumerate_types(k)) for i in range(1, n + 1)]
        gap = math.fsum(x) - trace_power_expansion(matrix, k, enumerate_types(k))
        assert gap == pytest.approx(tail, rel=1e-9, abs=1e-9)

    def test_gap_bound_and_no_growth(self):
        spec = EnsembleSpec.anderson()
        k = 3
        bound = boundary_bound(spec, k)
        assert bound == pytest.approx(6.0)  # two span-1 classes, count 3, entries of size 1
        means = []
        for n in (100, 1000):
            gaps = boundary_gap_samples(spec, n, k, 40, 99)
            assert np.all(np.abs(gaps) <= bound + 1e-9)
            means.append(np.abs(gaps).mean())
        ratio = means[1] / means[0]
        assert 0.0 <= ratio <= 2.0

    def test_bound_requires_bounded_spec(self):
        with pytest.raises(InvalidArgumentError):
            boundary_bound(EnsembleSpec.anderson(EntryLaw.gaussian(0, 1)), 3)
        with pytest.raises(InvalidArgumentError):
            boundary_gap_samples(EnsembleSpec.birth_death_kernel(), 50, 3, 4, 0)


class TestDistributionalProperties:
    def test_covariance_psd_up_to_jitter(self):
        spec = EnsembleSpec.beta_hermite(2.0)
        samples = mc_traces(spec, 400, (1, 2, 3), 3000, 31)
        emp = np.cov(samples.T, ddof=1)
        centered = samples - samples.mean(axis=0)
        se = np.sqrt(np.maximum(
            np.einsum("ti,tj->ij", centered ** 2, centered ** 2) / samples.shape[0] - emp ** 2,
            0.0) / samples.shape[0])
        eigmin = np.linalg.eigvalsh(emp).min()
        assert eigmin >= -5 * se.max()

    def test_mixed_parity_entries_vanish(self):
        spec = EnsembleSpec.beta_hermite(2.0)
        samples = mc_traces(spec, 500, (1, 2), 4000, 13)
        centered = samples - samples.mean(axis=0)
        cov = centered[:, 0] * centered[:, 1]
        se = cov.std(ddof=1) / math.sqrt(len(cov))
        assert abs(cov.mean()) <= 4 * se

    def test_doubling_n_scales_variance(self):
        # variance of the unscaled trace grows like n^(2 alpha k + 1 - 2 eps)
        spec = EnsembleSpec.anderson()
        k = 3
        vs = []
        for n in (200, 400):
            samples = mc_traces(spec, n, (k,), 4000, 7, alpha=0.0, epsilon=0.0)[:, 0]
            vs.append((samples * math.sqrt(n)) .var(ddof=1))
        ratio = vs[1] / vs[0]
        rel_se = math.sqrt(2 * (2.0 / 4000 + 3.0 / 4000))  # generous kurtosis allowance
        assert abs(ratio - 2.0) <= 4 * 2.0 * rel_se

    def test_report_thresholds_for_iid_sum(self):
        spec = EnsembleSpec.anderson()
        n, trials = 10_000, 10_000
        samples = mc_traces(spec, n, (1,), trials, 0x5EED, alpha=0.0, epsilon=0.0)
        target = CovarianceTarget(source="iid_window_formula", value=np.array([[1.0]]))
        report = normality_report(samples, target, k_list=(1,), n=n, scaling_exponents=(0.5,))
        assert abs(report.variance[0] - 1.0) < 0.05
        assert abs(report.skewness[0]) < 0.1
        assert abs(report.excess_kurtosis[0]) < 0.2
