"""Every integer argument of the public entry points goes through
``circuits.checked_int``: a float, bool, string or None is an error naming
the argument, never a value rounded or read as 1, and a numpy integer reads
as the Python int it equals."""

import os
import pickle

import numpy as np
import pytest

from conftest import boundary_gap_samples, count_circuits_bruteforce
from tritrace import stats
from tritrace.circuits import (
    RowTracer,
    TridiagonalMatrix,
    enumerate_types,
    trace_power_direct,
    trace_power_expansion,
)
from tritrace.deviations import mdp_check
from tritrace.ensembles import (
    EnsembleSpec,
    diagonal_sign_sums,
    sample_matrix,
    sample_matrix_chunks,
    sample_window_arrays,
    trial_seed_sequence,
)
from tritrace.errors import InvalidArgumentError
from tritrace.stats import (
    covariance_target,
    dependence_range,
    dk_iid,
    mc_traces,
    normality_report,
)

ANDERSON = EnsembleSpec("anderson")
HATANO = EnsembleSpec("hatano_nelson")
MATRIX = sample_matrix(HATANO, 10, 3)
AB, DIAG = (MATRIX.sub * MATRIX.sup)[None, :], MATRIX.diag[None, :]
SAMPLES = np.random.default_rng(0).normal(size=(100, 2))
TARGET = covariance_target((1, 2), "beta_hermite", beta=2.0)

# (id, call of one integer argument, its name in the error, a valid value,
# a value out of range)
ENTRY_POINTS = [
    ("enumerate_types", enumerate_types, "k", 4, 17),
    ("count_circuits_bruteforce", count_circuits_bruteforce, "k", 4, 13),
    ("RowTracer-k", lambda v: RowTracer(10, (2, v))(AB, DIAG, 1), "k", 9, 17),
    ("trace_power_direct", lambda v: trace_power_direct(MATRIX, v), "k", 3, 0),
    ("trace_power_expansion",
     lambda v: trace_power_expansion(MATRIX, v, enumerate_types(4)), "k", 4, 17),
    ("trial_seed_sequence", lambda v: trial_seed_sequence(5, v).generate_state(4),
     "trial_index", 7, 2 ** 32),
    ("sample_matrix", lambda v: sample_matrix(HATANO, v, 1), "n", 6, 1),
    ("sample_matrix_chunks", lambda v: next(sample_matrix_chunks(HATANO, v, 9, range(4), 4)),
     "n", 6, 1),
    ("diagonal_sign_sums", lambda v: diagonal_sign_sums(ANDERSON, v, 9, range(4), 4),
     "n", 7, 1),
    ("sample_window_arrays-first_index",
     lambda v: sample_window_arrays(HATANO, v, 5, 2, 1), "first_index", 2, 0),
    ("sample_window_arrays-length",
     lambda v: sample_window_arrays(HATANO, 2, v, 2, 1), "length", 5, 0),
    ("sample_window_arrays-count",
     lambda v: sample_window_arrays(HATANO, 2, 5, v, 1), "count", 2, 0),
    ("dependence_range", lambda v: dependence_range(v, True), "k", 3, 0),
    ("mc_traces-k", lambda v: mc_traces(HATANO, 10, (1, v), 4, 9, None, None), "k", 9, 17),
    ("mc_traces-n", lambda v: mc_traces(HATANO, v, (1, 2), 4, 9, None, None), "n", 10, 1),
    ("mc_traces-trials", lambda v: mc_traces(HATANO, 10, (1, 2), v, 9, None, None), "trials", 4, 1),
    ("mc_traces-workers", lambda v: mc_traces(HATANO, 10, (1, 2), 4, 9, None, None, workers=v),
     "workers", 1, 0),
    ("dk_iid-k", lambda v: dk_iid(HATANO, v, 1000, 1), "k", 2, 0),
    ("dk_iid-replicas", lambda v: dk_iid(HATANO, 2, v, 1), "replicas", 1000, 1),
    ("covariance_target",
     lambda v: covariance_target((1, v), "beta_hermite", beta=2.0).value, "k", 4, 0),
    ("normality_report",
     lambda v: normality_report(SAMPLES, TARGET, k_list=(1, v), n=10,
                                scaling_exponents=(0.5, 1.0)).to_json_dict(), "k", 2, 0),
    ("normality_report-n",
     lambda v: normality_report(SAMPLES, TARGET, k_list=(1, 2), n=v,
                                scaling_exponents=(0.5, 1.0)).to_json_dict(), "n", 10, 1),
    ("boundary_gap_samples-n", lambda v: boundary_gap_samples(HATANO, v, 2, 3, 1), "n", 10, 0),
    ("boundary_gap_samples-k", lambda v: boundary_gap_samples(HATANO, 10, v, 3, 1), "k", 2, 17),
    ("boundary_gap_samples-trials", lambda v: boundary_gap_samples(HATANO, 10, 2, v, 1),
     "trials", 3, -1),
    ("mdp_check-k", lambda v: mdp_check(ANDERSON, v, 0.5, [64], [0.5], 300, 5,
                                        dk_replicas=2000), "k", 1, 17),
    ("mdp_check-n", lambda v: mdp_check(ANDERSON, 1, 0.5, [64, v], [0.5], 300, 5,
                                        dk_replicas=2000), "n", 32, 1),
    ("mdp_check-trials", lambda v: mdp_check(ANDERSON, 1, 0.5, [64], [0.5], v, 5,
                                             dk_replicas=2000), "trials", 300, 1),
    ("mdp_check-workers", lambda v: mdp_check(ANDERSON, 1, 0.5, [64], [0.5], 300, 5,
                                              workers=v, dk_replicas=2000), "workers", 1, 0),
    ("mdp_check-dk_replicas", lambda v: mdp_check(ANDERSON, 1, 0.5, [64], [0.5], 300, 5,
                                                  dk_replicas=v), "dk_replicas", 2000, 1),
]


@pytest.mark.parametrize("call, name, good, out_of_range",
                         [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_integer_arguments_are_read_strictly(call, name, good, out_of_range):
    for value in (1.5, 2.0, True, "3", None, out_of_range):
        with pytest.raises(InvalidArgumentError) as caught:
            call(value)
        message = str(caught.value)
        assert message.startswith((f"{name} must be", f"{name}=")), (value, message)
        assert repr(value) in message, (value, message)
    # a numpy integer reads as the int it equals, so the result keeps its bits
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize("run", ["mc_traces", "mdp_check"])
@pytest.mark.parametrize("k", [17, 1.5])
def test_powers_are_read_before_any_fork(monkeypatch, run, k):
    forks = []

    def fork():
        forks.append(k)
        raise OSError("no fork in this test")

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(InvalidArgumentError, match="^k"):
        if run == "mc_traces":
            mc_traces(ANDERSON, 64, (k,), 2100, 5, None, None, workers=2)
        else:
            mdp_check(ANDERSON, k, 0.5, [64], [0.5], 2100, 5, workers=2)
    assert forks == []


@pytest.mark.parametrize("run", ["dk_iid", "covariance_target"])
def test_window_powers_are_read_before_any_draw(monkeypatch, run):
    draws = []
    sample = stats.sample_window_arrays

    def counted(*args, **kwargs):
        draws.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(stats, "sample_window_arrays", counted)
    with pytest.raises(InvalidArgumentError, match="^k=17 "):
        if run == "dk_iid":
            dk_iid(ANDERSON, 17, 200_000, 1)
        else:
            covariance_target((1, 17), "iid_mc", spec=ANDERSON, replicas=200_000, seed=1)
    assert draws == []
    dk_iid(ANDERSON, 1, 1000, 1)   # the counter sees the draws a valid power makes
    assert len(draws) == 1
    # the closed forms hold at every power
    assert covariance_target((1, 17), "beta_hermite", beta=2.0).value.shape == (2, 2)
