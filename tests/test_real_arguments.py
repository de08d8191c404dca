"""Every real argument of the public entry points goes through
``circuits.checked_real``: a bool, string or None is an error naming the
argument, never a value read as 1 or a bare ``TypeError``; a non-finite value
is an error naming it, never a NaN result; and a numpy float reads as the
float it equals."""

import math
import os
import pickle

import numpy as np
import pytest

from tritrace.circuits import checked_real
from tritrace.deviations import RateEstimate, cramer_rate_k1, mdp_check, rate_failures
from tritrace.ensembles import EnsembleSpec, EntryLaw
from tritrace.errors import InvalidArgumentError
from tritrace.stats import (covariance_failures, covariance_target, growth_exponents, mc_traces,
                            normality_report)

ANDERSON = EnsembleSpec("anderson")
SAMPLES = np.random.default_rng(0).normal(size=(100, 2))
TARGET = covariance_target((1, 2), "beta_hermite", beta=2.0)
DEGENERATE = {"a": 1.5, "var_eta": 0.3, "var_zeta": 0.9, "alpha": 0.5, "epsilon": 0.5}
# an estimate 10x off its prediction, and a covariance entry half its target
# off it, with no standard error: each verdict fails them below tolerance 9 or
# 0.5.  A NaN tolerance once passed the rate gate whatever the rates and failed
# every covariance entry; a string raised a bare TypeError and True read as 1.
OFF_RATE = [RateEstimate(n=100, nu=0.5, delta=1.0, tail_prob=0.1, empirical_rate=5.0,
                         predicted_rate=0.5, trials=4096)]
OFF_COVARIANCE = ((1,), np.ones((1, 1)), np.zeros((1, 1)), np.full((1, 1), 2.0))


def degenerate(name):
    return lambda v: covariance_target((2, 3), "symmetric_degenerate",
                                       **{**DEGENERATE, name: v}).value


# (id, call of one real argument, the name that starts its errors, a valid
# value, and what None means where it is not a type error: the default it
# stands for, or the text of the error for a missing required field)
ENTRY_POINTS = [
    ("EnsembleSpec-beta", lambda v: EnsembleSpec("beta_hermite", beta=v).describe(),
     "beta", 2.5, "beta_hermite requires beta"),
    ("EntryLaw", lambda v: EntryLaw("uniform", (v, 3.0)), "uniform law parameter", 0.5, None),
    ("mc_traces-alpha", lambda v: mc_traces(ANDERSON, 8, (1,), 4, 1, v, 0.0), "alpha", 0.25, 0.0),
    ("mc_traces-epsilon", lambda v: mc_traces(ANDERSON, 8, (1,), 4, 1, 0.0, v),
     "epsilon", 0.25, 0.0),
    ("growth_exponents-alpha", lambda v: growth_exponents(ANDERSON, (1, 3), v, 0.0),
     "alpha", 0.25, 0.0),
    ("growth_exponents-epsilon", lambda v: growth_exponents(ANDERSON, (1, 3), 0.0, v),
     "epsilon", 0.25, 0.0),
    ("normality_report",
     lambda v: normality_report(SAMPLES, TARGET, k_list=(1, 2), n=10,
                                scaling_exponents=(0.5, v)).to_json_dict(),
     "scaling_exponents entry", 1.0, None),
    ("mdp_check-nu", lambda v: mdp_check(ANDERSON, 1, v, [64], [0.5], 300, 5, dk_replicas=2000),
     "nu", 0.5, None),
    ("mdp_check-delta_list",
     lambda v: mdp_check(ANDERSON, 1, 0.5, [64], [0.5, v], 300, 5, dk_replicas=2000),
     "delta_list entry", 0.25, None),
    ("rate_failures-tolerance", lambda v: rate_failures(OFF_RATE, v), "tolerance", 0.25, None),
    ("covariance_failures-tolerance", lambda v: covariance_failures(*OFF_COVARIANCE, v),
     "tolerance", 0.1, None),
    ("cramer_rate_k1-x_grid", lambda v: cramer_rate_k1(EntryLaw("rademacher"), [0.5, v]).rate,
     "x_grid entry", 0.25, None),
    ("cramer_rate_k1-t_max", lambda v: cramer_rate_k1(EntryLaw("rademacher"), [0.5], v).rate,
     "t_max", 5.0, None),
    ("covariance_target-beta",
     lambda v: covariance_target((1, 2), "beta_hermite", beta=v).value, "beta", 2.5, None),
    *[(f"covariance_target-{name}", degenerate(name), name, value, None)
      for name, value in DEGENERATE.items()],
]


@pytest.mark.parametrize("call, name, good, none",
                         [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_real_arguments_are_read_strictly(call, name, good, none):
    for value in (True, str(good), None, math.nan, math.inf):
        if value is None and isinstance(none, float):
            continue
        with pytest.raises(InvalidArgumentError) as caught:
            call(value)
        message = str(caught.value)
        if isinstance(value, float):
            assert message == f"{name} must be finite, got {value!r}"
        elif value is None and none is not None:
            assert message == none
        else:
            assert message.startswith(f"{name} must be a real number, got {value!r}"), message
    # a numpy float reads as the float it equals, so the result keeps its bits
    assert pickle.dumps(call(np.float64(good))) == pickle.dumps(call(good))
    if isinstance(none, float):   # None takes the spec's default
        assert pickle.dumps(call(None)) == pickle.dumps(call(none))


def test_reader_accepts_numbers_only():
    assert checked_real("x", 3) == 3.0 and type(checked_real("x", np.int64(3))) is float
    for value in (True, np.True_, "1", None, 1j, [1.0]):
        with pytest.raises(InvalidArgumentError, match="^x must be a real number"):
            checked_real("x", value)
    # an int beyond the float range is a non-finite value, not an OverflowError
    for value in (-math.inf, np.float64(math.nan), -10 ** 400, 10 ** 400):
        with pytest.raises(InvalidArgumentError, match="^x must be finite"):
            checked_real("x", value)


@pytest.mark.parametrize("verdict", [
    lambda tolerance: rate_failures(OFF_RATE, tolerance),
    lambda tolerance: covariance_failures(*OFF_COVARIANCE, tolerance),
], ids=["rate_failures", "covariance_failures"])
def test_gate_tolerance_must_be_non_negative(verdict):
    # a negative tolerance once ran; the other bad values are ENTRY_POINTS rows
    with pytest.raises(InvalidArgumentError) as caught:
        verdict(-0.1)
    assert str(caught.value) == "tolerance must be >= 0, got -0.1"
    assert verdict(0.0) != [] and verdict(9.5) == []


@pytest.mark.parametrize("run, bad", [
    ("mc_traces", "alpha"), ("mdp_check", "nu"), ("mdp_check", "delta_list")])
def test_reals_are_read_before_any_fork(monkeypatch, run, bad):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the checks"))
    with pytest.raises(InvalidArgumentError, match=f"^{bad}"):
        if run == "mc_traces":
            mc_traces(ANDERSON, 64, (1,), 2100, 5, "1", None, workers=2)
        elif bad == "nu":
            mdp_check(ANDERSON, 1, "0.5", [64], [0.5], 2100, 5, workers=2)
        else:
            mdp_check(ANDERSON, 1, 0.5, [64], ["x"], 2100, 5, workers=2)
