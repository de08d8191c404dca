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
from tritrace.deviations import cramer_rate_k1, mdp_check
from tritrace.ensembles import EnsembleSpec, EntryLaw
from tritrace.errors import InvalidArgumentError
from tritrace.stats import covariance_target, growth_exponents, mc_traces, normality_report

ANDERSON = EnsembleSpec("anderson")
SAMPLES = np.random.default_rng(0).normal(size=(100, 2))
TARGET = covariance_target((1, 2), "beta_hermite", beta=2.0)
DEGENERATE = {"a": 1.5, "var_eta": 0.3, "var_zeta": 0.9, "alpha": 0.5, "epsilon": 0.5}


def degenerate(name):
    return lambda v: covariance_target((2, 3), "symmetric_degenerate",
                                       **{**DEGENERATE, name: v}).value


# (id, call of one real argument, the name that starts its type error, a valid
# value, the text of its non-finite error where a check of its own names it,
# and what None means where it is not a type error: the default it stands for,
# or the text of the error for a missing required field)
ENTRY_POINTS = [
    ("EnsembleSpec-beta", lambda v: EnsembleSpec("beta_hermite", beta=v).describe(),
     "beta", 2.5, "beta_hermite requires a finite beta > 0", "beta_hermite requires beta"),
    ("EntryLaw", lambda v: EntryLaw("uniform", (v, 3.0)), "uniform law parameter", 0.5,
     "uniform law parameters must be finite", None),
    ("mc_traces-alpha", lambda v: mc_traces(ANDERSON, 8, (1,), 4, 1, v, 0.0),
     "alpha", 0.25, None, 0.0),
    ("mc_traces-epsilon", lambda v: mc_traces(ANDERSON, 8, (1,), 4, 1, 0.0, v),
     "epsilon", 0.25, None, 0.0),
    ("growth_exponents-alpha", lambda v: growth_exponents(ANDERSON, (1, 3), v, 0.0),
     "alpha", 0.25, None, 0.0),
    ("growth_exponents-epsilon", lambda v: growth_exponents(ANDERSON, (1, 3), 0.0, v),
     "epsilon", 0.25, None, 0.0),
    ("normality_report",
     lambda v: normality_report(SAMPLES, TARGET, k_list=(1, 2), n=10,
                                scaling_exponents=(0.5, v)).to_json_dict(),
     "scaling_exponents entry", 1.0, None, None),
    ("mdp_check-nu", lambda v: mdp_check(ANDERSON, 1, v, [64], [0.5], 300, 5, dk_replicas=2000),
     "nu", 0.5, "nu must lie in (0, 1)", None),
    ("mdp_check-delta_list",
     lambda v: mdp_check(ANDERSON, 1, 0.5, [64], [0.5, v], 300, 5, dk_replicas=2000),
     "delta_list entry", 0.25, "thresholds must be finite and >= 0", None),
    ("cramer_rate_k1-t_max", lambda v: cramer_rate_k1(EntryLaw.rademacher(), [0.5], v).rate,
     "t_max", 5.0, "t_max", None),   # NaN is not positive, inf too wide a tilt range
    ("covariance_target-beta",
     lambda v: covariance_target((1, 2), "beta_hermite", beta=v).value,
     "beta", 2.5, "beta_hermite regime requires a finite beta > 0", None),
    *[(f"covariance_target-{name}", degenerate(name), name, value, None, None)
      for name, value in DEGENERATE.items()],
]


@pytest.mark.parametrize("call, name, good, non_finite, none",
                         [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_real_arguments_are_read_strictly(call, name, good, non_finite, none):
    for value in (True, str(good), None, math.nan, math.inf):
        if value is None and isinstance(none, float):
            continue
        with pytest.raises(InvalidArgumentError) as caught:
            call(value)
        message = str(caught.value)
        if isinstance(value, float):
            assert (non_finite or f"{name} must be finite") in message, (value, message)
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
    assert checked_real("x", -math.inf, finite=False) == -math.inf
    for value in (True, np.True_, "1", None, 1j, [1.0]):
        with pytest.raises(InvalidArgumentError, match="^x must be a real number"):
            checked_real("x", value)
    # an int beyond the float range is a non-finite value, not an OverflowError
    with pytest.raises(InvalidArgumentError, match="^x must be finite"):
        checked_real("x", -10 ** 400)
    assert checked_real("x", 10 ** 400, finite=False) == math.inf


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
