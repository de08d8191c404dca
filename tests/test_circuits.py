import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import central_trinomial, count_circuits_bruteforce, walk_class_counts
from tritrace import circuits
from tritrace.accumulate import compensated_sum, compensated_sum_rows
from tritrace.circuits import (
    BANDED_MIN_K,
    CircuitType,
    TridiagonalMatrix,
    enumerate_types,
    trace_power_direct,
    trace_power_expansion,
    types_as_json_lines,
)
from tritrace.ensembles import EnsembleSpec, EntryLaw, sample_matrix
from tritrace.errors import InvalidArgumentError, NumericOverflowError


def key(t):
    return (t.span, t.half_edges, t.loops)


def table(k):
    return {key(t): t.count for t in enumerate_types(k)}


class TestTypeEnumeration:
    def test_k1_single_loop_type(self):
        assert table(1) == {(0, (), (1,)): 1}

    def test_k2_hand_enumeration(self):
        # the three closed 2-step walks: stay-stay, up-down, down-up; the
        # latter two coincide after shifting the leftmost vertex to 0
        assert table(2) == {(0, (), (2,)): 1, (1, (1,), (0, 0)): 2}

    def test_k3_known_counts(self):
        assert table(3) == {
            (0, (), (3,)): 1,
            (1, (1,), (1, 0)): 3,
            (1, (1,), (0, 1)): 3,
        }

    def test_k4_known_counts(self):
        assert table(4) == {
            (0, (), (4,)): 1,
            (1, (1,), (2, 0)): 4,
            (1, (1,), (1, 1)): 4,
            (1, (1,), (0, 2)): 4,
            (1, (2,), (0, 0)): 2,
            (2, (1, 1), (0, 0, 0)): 4,
        }

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_types(0)
        with pytest.raises(InvalidArgumentError):
            enumerate_types(17)
        with pytest.raises(InvalidArgumentError):
            enumerate_types(2.5)

    def test_deterministic_and_sorted(self):
        first = enumerate_types(7)
        second = enumerate_types(7)
        assert [key(t) for t in first] == [key(t) for t in second]
        keys = [key(t) for t in first]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bruteforce_oracle_matches(self, k):
        assert count_circuits_bruteforce(k) == table(k)

    @pytest.mark.parametrize("k", range(1, 15))
    def test_step_dp_oracle_matches(self, k):
        assert table(k) == walk_class_counts(k)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_walk_count_conservation(self, k):
        assert sum(t.count for t in enumerate_types(k)) == central_trinomial(k)

    def test_bruteforce_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            count_circuits_bruteforce(13)
        with pytest.raises(InvalidArgumentError):
            count_circuits_bruteforce(0)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_admissibility_invariants(self, k):
        for t in enumerate_types(k):
            assert 0 <= t.span <= k // 2
            assert 2 * sum(t.half_edges) + sum(t.loops) == k
            assert all(m >= 1 for m in t.half_edges)
            assert all(h >= 0 for h in t.loops)
            assert t.count >= 1

    @given(st.integers(min_value=1, max_value=14))
    @settings(max_examples=20)
    def test_type_set_matches_direct_composition_enumeration(self, k):
        # admissible profiles generated arithmetic-first: every edge vector of
        # positive parts with total weight <= k/2, loops filling the rest
        import itertools

        def compositions(total, parts):
            if parts == 0:
                if total == 0:
                    yield ()
                return
            for head in range(1, total - parts + 2):
                for rest in compositions(total - head, parts - 1):
                    yield (head,) + rest

        def weak_compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for rest in weak_compositions(total - head, parts - 1):
                    yield (head,) + rest

        expected = set()
        for span in range(0, k // 2 + 1):
            if span == 0:
                expected.add((0, (), (k,)))
                continue
            for total_m in range(span, k // 2 + 1):
                for m in compositions(total_m, span):
                    for loops in weak_compositions(k - 2 * total_m, span + 1):
                        expected.add((span, m, loops))
        assert {key(t) for t in enumerate_types(k)} == expected

    def test_type_validation(self):
        with pytest.raises(InvalidArgumentError):
            CircuitType(k=4, span=1, half_edges=(0,), loops=(2, 2), count=1)
        with pytest.raises(InvalidArgumentError):
            CircuitType(k=4, span=1, half_edges=(1,), loops=(1, 0), count=1)
        with pytest.raises(InvalidArgumentError):
            CircuitType(k=4, span=1, half_edges=(1,), loops=(2, 0), count=0)

    @pytest.mark.parametrize("fields, message", [
        (dict(k=0, span=0, half_edges=(), loops=(0,)), "k must be >= 1"),
        (dict(k=4, span=3, half_edges=(1, 1, 1), loops=(0, 0, 0, 0)), "span outside"),
        (dict(k=4, span=1, half_edges=(1, 1), loops=(0, 0)), "vector lengths inconsistent"),
        (dict(k=4, span=1, half_edges=(1,), loops=(3, -1)), "loop counts must be >= 0"),
    ], ids=["k0", "span-above-half", "wrong-lengths", "negative-loop"])
    def test_each_type_check_names_its_fault(self, fields, message):
        with pytest.raises(InvalidArgumentError, match=message):
            CircuitType(count=1, **fields)

    def test_json_lines_roundtrip(self):
        types = enumerate_types(5)
        records = [json.loads(line) for line in types_as_json_lines(types).splitlines()]
        assert records == [{"k": t.k, "l": t.span, "m": list(t.half_edges),
                            "n": list(t.loops), "count": t.count} for t in types]


def ones_matrix(n, dtype=float):
    if dtype is object:
        off = np.array([1] * (n - 1), dtype=object)
        diag = np.array([1] * n, dtype=object)
    else:
        off = np.ones(n - 1)
        diag = np.ones(n)
    return TridiagonalMatrix(sub=off, diag=diag, sup=off.copy())


def signed_integer_matrix(n):
    """Distinct, signed, non-symmetric integer entries, exact (object dtype)."""
    values = [(-1) ** v * v for v in range(2, 3 * n)]
    return TridiagonalMatrix(sub=np.array(values[n:2 * n - 1], dtype=object),
                             diag=np.array(values[:n], dtype=object),
                             sup=np.array(values[2 * n - 1:], dtype=object))


class TestTraceExpansion:
    def test_all_ones_k2(self):
        m = ones_matrix(3)
        assert trace_power_expansion(m, 2, enumerate_types(2)) == pytest.approx(7.0)

    def test_all_ones_k4_matches_dense_oracle(self):
        m = ones_matrix(3)
        dense = np.trace(np.linalg.matrix_power(m.to_dense(), 4))
        assert dense == pytest.approx(35.0)
        assert trace_power_expansion(m, 4, enumerate_types(4)) == pytest.approx(dense)

    def test_zero_diagonal_k1(self):
        m = TridiagonalMatrix(sub=np.ones(4), diag=np.zeros(5), sup=np.ones(4))
        assert trace_power_expansion(m, 1, enumerate_types(1)) == 0.0

    def test_k3_unit_offdiagonal_formula(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(-2, 2, 5)
        m = TridiagonalMatrix(sub=np.ones(4), diag=d, sup=np.ones(4))
        expected = np.sum(d ** 3) + 3 * np.sum(d[:-1] + d[1:])
        got = trace_power_expansion(m, 3, enumerate_types(3))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sub, diag, sup, message", [
        (np.ones(2), np.ones((1, 3)), np.ones(2), "diagonals must be 1-d arrays"),
        (np.ones((2, 1)), np.ones(3), np.ones(2), "diagonals must be 1-d arrays"),
        (np.ones(3), np.ones(3), np.ones(2), "off-diagonals must have length n-1"),
        (np.ones(2), np.ones(3), np.ones(1), "off-diagonals must have length n-1"),
        (np.ones(0), np.ones(0), np.ones(0), "dimension must be >= 1"),
    ], ids=["2d-diag", "2d-sub", "long-sub", "short-sup", "empty-diag"])
    def test_malformed_diagonals_are_rejected(self, sub, diag, sup, message):
        with pytest.raises(InvalidArgumentError, match=message):
            TridiagonalMatrix(sub=sub, diag=diag, sup=sup)

    def test_dimension_too_small(self):
        m = ones_matrix(2)
        with pytest.raises(InvalidArgumentError):
            trace_power_expansion(m, 6, enumerate_types(6))

    def test_type_table_mismatch(self):
        m = ones_matrix(4)
        with pytest.raises(InvalidArgumentError):
            trace_power_expansion(m, 3, enumerate_types(4))
        with pytest.raises(InvalidArgumentError):
            trace_power_expansion(m, 3, ())
        # part of the right table once summed only its classes: 16.0, not 54.0
        with pytest.raises(InvalidArgumentError, match="full table"):
            trace_power_expansion(m, 4, enumerate_types(4)[:2])
        assert trace_power_expansion(m, 4, list(enumerate_types(4))) == 54.0

    def test_overflow_reported(self):
        m = TridiagonalMatrix(sub=np.full(3, 1e300), diag=np.full(4, 1e300),
                              sup=np.full(3, 1e300))
        with pytest.raises(NumericOverflowError):
            trace_power_expansion(m, 4, enumerate_types(4))

    @pytest.mark.parametrize("m,k", [
        # finite terms whose sum overflows
        (TridiagonalMatrix(sub=np.ones(1), diag=np.full(2, 1e308), sup=np.ones(1)), 1),
        # edge products of +inf and -inf in one class sum
        (TridiagonalMatrix(sub=np.array([1e200, 1e200]), diag=np.ones(3),
                           sup=np.array([1e200, -1e200])), 2),
        # k >= BANDED_MIN_K: traces_for_k_list takes the half-power banded kernel
        (TridiagonalMatrix(sub=np.full(9, 1e40), diag=np.full(10, 1e40),
                           sup=np.full(9, 1e40)), 8),
    ])
    def test_sum_overflow_is_typed_on_every_route(self, m, k):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError):
                trace_power_expansion(m, k, enumerate_types(k))
            with pytest.raises(NumericOverflowError):
                circuits.traces_for_k_list(m, [k])
            with pytest.raises(NumericOverflowError):
                trace_power_direct(m, k)


class TestCompensatedSum:
    @pytest.mark.parametrize("values", [
        [np.inf, -np.inf] * 150,   # blockwise path: the pair meets inside one block sum
        [np.inf] * 10,             # math.fsum path
    ])
    def test_non_finite_sum_is_an_error(self, values):
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError):
            compensated_sum(values)

    @pytest.mark.parametrize("width", [0, 1, 255, 256, 257, 700, 1000])
    def test_rows_match_one_row_at_a_time(self, width):
        rng = np.random.default_rng(width)
        base = rng.standard_normal((9, width + 5)) * 10.0 ** rng.integers(-12, 12, width + 5)
        rows = base[:, 2:2 + width]  # strided, as class products are
        # the per-row reference: fsum of 256-wide numpy block sums
        want = [math.fsum(np.add.reduceat(row, np.arange(0, width, 256)).tolist()
                          if width > 256 else row.tolist()) for row in rows]
        got = compensated_sum_rows(rows)
        np.testing.assert_array_equal(got, want)
        assert [compensated_sum(row) for row in rows] == want

    @pytest.mark.parametrize("bad", [
        [np.inf], [np.nan], [np.inf, -np.inf] * 150, [1e308] * 300])
    def test_non_finite_row_is_an_error(self, bad):
        rows = np.ones((3, len(bad)))
        rows[1] = bad
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericOverflowError):
            compensated_sum_rows(rows)


DIRECT_DIGEST = "1a26a00e18e097f786ab4aa7d531c4eab86bb1b8b5504ca434e768ba9f69b67c"


class TestTraceDirect:
    def test_identity_matrix(self):
        m = TridiagonalMatrix(sub=np.zeros(6), diag=np.ones(7), sup=np.zeros(6))
        for k in (1, 2, 5):
            assert trace_power_direct(m, k) == pytest.approx(7.0)

    def test_all_ones_k2(self):
        assert trace_power_direct(ones_matrix(3), 2) == pytest.approx(7.0)

    def test_single_site(self):
        m = TridiagonalMatrix(sub=np.zeros(0), diag=np.array([3.0]), sup=np.zeros(0))
        assert trace_power_direct(m, 4) == pytest.approx(81.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TridiagonalMatrix(sub=np.array([np.nan]), diag=np.ones(2), sup=np.ones(1))

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_matches_dense_power(self, seed, n, k):
        rng = np.random.default_rng(seed)
        m = TridiagonalMatrix(sub=rng.uniform(-2, 2, n - 1), diag=rng.uniform(-2, 2, n),
                              sup=rng.uniform(-2, 2, n - 1))
        dense = float(np.trace(np.linalg.matrix_power(m.to_dense(), k)))
        assert trace_power_direct(m, k) == pytest.approx(dense, rel=1e-10, abs=1e-10)

    def test_reference_bits_are_pinned(self):
        # the reference's floats, bit for bit: seeded matrices at every power,
        # and integer-valued ones with a zero diagonal at odd powers, whose
        # traces are exactly zero and so pin the sign of zero
        digest = hashlib.sha256()
        for n in (1, 2, 5, 9, 64, 300):
            rng = np.random.default_rng(n)
            m = TridiagonalMatrix(sub=rng.uniform(-2, 2, n - 1), diag=rng.uniform(-2, 2, n),
                                  sup=rng.uniform(-2, 2, n - 1))
            z = TridiagonalMatrix(sub=rng.integers(-3, 4, n - 1).astype(float),
                                  diag=np.zeros(n),
                                  sup=rng.integers(-3, 4, n - 1).astype(float))
            values = [trace_power_direct(m, k) for k in range(1, 17)]
            values += [trace_power_direct(z, k) for k in range(1, 17, 2)]
            digest.update(repr(values).encode())
        assert digest.hexdigest() == DIRECT_DIGEST, (
            f"trace_power_direct's bits changed under numpy {np.__version__}; "
            "the digest was taken under numpy 2.4.6")


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_expansion_equals_direct(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.choice([8, 16, 32, 64]))
            k = int(rng.integers(1, 11))
            m = TridiagonalMatrix(sub=rng.uniform(-2, 2, n - 1),
                                  diag=rng.uniform(-2, 2, n),
                                  sup=rng.uniform(-2, 2, n - 1))
            e = trace_power_expansion(m, k, enumerate_types(k))
            d = trace_power_direct(m, k)
            assert abs(e - d) <= 1e-9 * (1.0 + abs(d))

    def test_exact_integer_mode_equality(self):
        # all-ones matrix; both routes must agree exactly in integer arithmetic
        for k in (2, 5, 8):
            m = ones_matrix(k + 4, dtype=object)
            e = trace_power_expansion(m, k, enumerate_types(k))
            d = trace_power_direct(m, k)
            assert isinstance(e, int) and isinstance(d, int)
            assert e == d

    def test_traces_for_k_list_matches_single_calls(self):
        rng = np.random.default_rng(11)
        m = TridiagonalMatrix(sub=rng.uniform(-1, 1, 19), diag=rng.uniform(-1, 1, 20),
                              sup=rng.uniform(-1, 1, 19))
        batch = circuits.traces_for_k_list(m, (1, 2, 3, 4, 5))
        singles = [trace_power_expansion(m, k, enumerate_types(k)) for k in (1, 2, 3, 4, 5)]
        assert np.allclose(batch, singles, rtol=0, atol=0)


class TestMonteCarloRoute:
    """``traces_for_k_list`` against the independent expansion oracle."""

    @pytest.fixture(params=[
        (model, n) for model in ("beta_hermite", "hatano_nelson") for n in (8, 64, 1000)],
        ids=lambda p: f"{p[0]}-n{p[1]}")
    def matrix(self, request):
        model, n = request.param
        spec = (EnsembleSpec("beta_hermite", beta=2.0) if model == "beta_hermite"
                else EnsembleSpec("hatano_nelson"))
        return sample_matrix(spec, n, 20 + n)

    def test_matches_expansion_at_every_power(self, matrix):
        for k in range(1, 13):
            got = circuits.traces_for_k_list(matrix, [k])[0]
            want = trace_power_expansion(matrix, k, enumerate_types(k))
            if k < BANDED_MIN_K:
                assert got == want
            else:
                assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_mixed_list_equals_single_calls(self, matrix):
        ks = (12, 1, 8, 3, 9, 4, 11, 7)
        batch = circuits.traces_for_k_list(matrix, ks)
        singles = [circuits.traces_for_k_list(matrix, [k])[0] for k in ks]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)

    @pytest.mark.parametrize("n", [8, 64])
    def test_unequal_off_diagonals_do_not_overflow(self, n):
        # sub*sup == 1, so every trace is finite, but sup^6 alone overflows
        # and sub^6 alone underflows
        spec = EnsembleSpec("hatano_nelson", a_law=EntryLaw("constant", (1e60,)),
                            b_law=EntryLaw("constant", (1e-60,)))
        m = sample_matrix(spec, n, 31)
        got = circuits.traces_for_k_list(m, range(BANDED_MIN_K, 13))
        for k, value in zip(range(BANDED_MIN_K, 13), got):
            want = trace_power_expansion(m, k, enumerate_types(k))
            assert abs(value - want) <= 1e-9 * (1.0 + abs(want))

    def test_exact_matrix_gives_float_traces(self):
        # object entries are multiplied exactly and rounded to float once;
        # every value here is an integer below 2**53, so each trace is exact
        m = signed_integer_matrix(7)
        ks = (1, 2, 3, 6, 8)
        got = circuits.traces_for_k_list(m, ks)
        assert got.tolist() == [trace_power_direct(m, k) for k in ks]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_exact_integer_kernel_matches_dense_power(self, n):
        # at n <= 3 the band of the half powers is wider than the matrix; the
        # reference's band stops at n-1 from k = 2(n-1) on: n = 7 at k >= 12
        m = signed_integer_matrix(n)
        plan = circuits._BandedPlan(n, range(1, 13), object)
        banded = plan.traces((m.sub * m.sup)[None, :], m.diag[None, :])[0]
        for k in range(1, 17):
            # object-dtype dense power: Python integer arithmetic throughout
            want = np.trace(np.linalg.matrix_power(m.to_dense(), k))
            for got in (*banded[k - 1:k], trace_power_direct(m, k)):   # the plan stops at 12
                assert isinstance(got, int)
                assert got == want

    @pytest.mark.parametrize("n, p_max", [(2, 8), (3, 8), (9, 8), (1000, 6)])
    def test_power_stacks_are_zero_off_the_band(self, n, p_max):
        # each step adds the stack unscaled one column to the right and zeroes
        # only padding column n, so any other stray slot would reach the traces;
        # at n <= 9 the band of S^8 is wider than the matrix.  Two matrices go
        # through one plan and the stacks are checked after the second, so a
        # row of d or ab left from the first, or a lost zero, would show.
        rng = np.random.default_rng(n)
        first, m = (TridiagonalMatrix(sub=rng.normal(size=n - 1), diag=rng.normal(size=n),
                                      sup=rng.normal(size=n - 1)) for _ in range(2))
        ab = m.sub * m.sup
        ks = range(1, 2 * p_max + 1)
        plan = circuits._BandedPlan(n, ks, float)
        both = plan.traces([first.sub * first.sup, ab], [first.diag, m.diag])
        stacks = plan.stacks
        assert len(stacks) == p_max + 1
        s = np.diag(m.diag) + np.diag(np.ones(n - 1), 1) + np.diag(ab, -1)
        col = np.arange(n + 1)                              # column n is padding
        for j, stack in enumerate(stacks):
            assert stack.shape == (j + 1, n + 1)
            o = np.arange(j + 1)[:, None]                   # row o holds S^j[c-o, c]
            inside = (col < n) & (col - o >= 0)
            assert np.all(stack[~inside] == 0)
            if n <= 9:
                rows, cols = np.nonzero(inside)
                want = np.linalg.matrix_power(s, j)[cols - rows, cols]
                np.testing.assert_allclose(stack[rows, cols], want, rtol=1e-12, atol=1e-12)
        for matrix, banded in zip((first, m), both):
            for k, got in zip(ks, banded):
                want = trace_power_direct(matrix, k)
                assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_reversal_identity_of_the_half_powers(self, n):
        # the kernel stores only the upper diagonals S^j[c-o, c] and reads
        # S^j[c, c-o] = P_o(c) S^j[c-o, c], P_o(c) = ab_{c-o+1} .. ab_c;
        # signed, non-symmetric integers make it exact and leave no symmetry
        m = signed_integer_matrix(n)
        ab = [0, *(m.sub * m.sup)]                         # ab[s] = S[s, s-1]
        s = np.diag(m.diag) + np.diag(np.full(n - 1, 1, dtype=object), 1) + np.diag(ab[1:], -1)
        power = np.identity(n, dtype=object)
        for j in range(1, 9):
            power = power.dot(s)
            for o in range(n):
                for c in range(o, n):
                    weight = math.prod(ab[c - o + 1:c + 1])
                    assert power[c, c - o] == weight * power[c - o, c]

    @pytest.mark.parametrize("k_list", [[0], [17], [8, 17], [12, 0], [8, 9.0], [True]])
    def test_power_validation(self, k_list):
        m = ones_matrix(20)
        with pytest.raises(InvalidArgumentError):
            circuits.traces_for_k_list(m, k_list)

    @pytest.mark.parametrize("n", [5, 1000])
    def test_one_tracer_gives_each_chunk_row_its_lone_bits(self, n):
        # a run's tracer serves every chunk, the last one short, and a chunk
        # after a shorter one, even when the first chunk is the short one and
        # the workspace grows; no row may see what an earlier one left behind
        rng = np.random.default_rng(n)
        ab, diag = rng.normal(size=(16, n - 1)), rng.normal(size=(16, n))
        ks = (12, 4, 8, 1, 9)
        tracer = circuits.RowTracer(n, ks)
        for rows in (slice(16 - 3, 16), slice(0, 16), slice(16 - 3, 16), slice(0, 16)):
            got = tracer(ab[rows], diag[rows], 1)
            for r, (a, d) in enumerate(zip(ab[rows], diag[rows])):
                lone = circuits.RowTracer(n, ks)(a[None, :], d[None, :], 1)[0]
                assert got[r].tobytes() == lone.tobytes()

    def test_warm_tracer_allocates_no_row_sized_array(self):
        # the class expansion writes its row copies, slot powers and class
        # products into the tracer's workspace, sized at the first call; each
        # row keeps the bits of the one-matrix expansion
        n, ks = 1000, (3, 4, 5)
        rng = np.random.default_rng(29)
        sub, diag, sup = (rng.normal(size=(16, size)) for size in (n - 1, n, n - 1))
        tracer = circuits.RowTracer(n, ks)
        tracer(sub, diag, sup)
        tracemalloc.start()
        try:
            got = tracer(sub, diag, sup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < diag.nbytes
        for r in range(16):
            m = TridiagonalMatrix(sub=sub[r], diag=diag[r], sup=sup[r])
            want = [trace_power_expansion(m, k, enumerate_types(k)) for k in ks]
            assert got[r].tobytes() == np.array(want).tobytes()


    def test_k1_tracer_forms_no_edge_product(self):
        # k=1's one class is the diagonal, so a tracer of k=1 alone never
        # multiplies sub by sup (here it would overflow) and allocates no
        # row-sized edge array, even on its first call
        rows, n = 16, 1000
        diag = np.random.default_rng(30).normal(size=(rows, n))
        huge = np.full((rows, n - 1), 1e200)
        tracer = circuits.RowTracer(n, (1,))
        tracemalloc.start()
        try:
            with np.errstate(over="raise"):
                got = tracer(huge, diag, huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < huge.nbytes
        assert got[:, 0].tobytes() == np.array(compensated_sum_rows(diag)).tobytes()


class TestBandedIdentities:
    """Metamorphic identities on the Monte Carlo route at n=1000, where the dense
    check cannot reach.  With entries in {-1, 0, 1} every value the kernels form
    is an integer below 2**53, so each identity holds bit for bit."""

    N, ROWS, KS = 1000, 4, range(BANDED_MIN_K, circuits.K_MAX + 1)

    def rows(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.integers(-1, 2, size=(self.ROWS, self.N - 1)).astype(float),
                rng.integers(-1, 2, size=(self.ROWS, self.N)).astype(float))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=5)
    def test_reversal_leaves_every_trace(self, seed):
        # reversing the index path maps each closed walk to one of the same weight
        ab, diag = self.rows(seed)
        want = circuits.RowTracer(self.N, self.KS)(ab, diag, 1)
        got = circuits.RowTracer(self.N, self.KS)(ab[:, ::-1], diag[:, ::-1], 1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [5, 50, 200])
    @pytest.mark.parametrize("c", [2.0 ** -3, 2.0, 2.0 ** 5, 3.0])
    def test_gauge_leaves_every_trace(self, n, c):
        # sub times c and sup over c is G Q G^-1 with G = diag(c^i): a
        # similarity, so no trace moves, and a power of two moves no bit; the
        # entries are positive, so no trace cancels below its terms' scale
        law = EntryLaw("uniform", (0.5, 1.5))
        q = sample_matrix(EnsembleSpec("generic_iid", a_law=law, d_law=law, b_law=law), n, 11)
        gauged = TridiagonalMatrix(sub=q.sub * c, diag=q.diag, sup=q.sup / c)
        pairs = [(trace_power_direct(m, k) for m in (q, gauged)) for k in range(1, 17)]
        pairs += [(trace_power_expansion(m, k, enumerate_types(k)) for m in (q, gauged))
                  for k in range(1, 9)]
        for want, got in pairs:
            if math.log2(c).is_integer():
                assert got.hex() == want.hex()
            else:
                assert abs(got - want) <= 1e-12 * abs(want)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([-1, 1, 2]))
    @settings(max_examples=5)
    def test_diagonal_shift_is_the_binomial_sum(self, seed, c):
        # tr((Q + cI)^k) = sum_j C(k, j) c^(k-j) tr(Q^j), with tr(Q^0) = n
        ab, diag = self.rows(seed)
        shifted = circuits.RowTracer(self.N, self.KS)(ab, diag + c, 1)
        powers = circuits.RowTracer(self.N, range(1, circuits.K_MAX + 1))(ab, diag, 1)
        for got, row in zip(shifted, powers):
            tr = [self.N] + [int(t) for t in row]
            for k, value in zip(self.KS, got):
                assert value == sum(math.comb(k, j) * c ** (k - j) * tr[j] for j in range(k + 1))
