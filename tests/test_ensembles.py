import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tritrace
from tritrace.cli import main
from tritrace.ensembles import (
    EnsembleSpec,
    EntryLaw,
    _DIAGONAL_SLOT,
    _MODELS,
    _Draws,
    _sample_sites,
    _trial_keys,
    as_seed_sequence,
    sample_matrix,
    sample_window_arrays,
    trial_seed_sequence,
)
from tritrace.errors import InvalidArgumentError

RADEMACHER = EntryLaw("rademacher")
# one spec per sampling branch; the non-symmetric Rademacher spec draws odd
# sign counts at odd n
SPECS = {
    "anderson": EnsembleSpec("anderson"),
    "beta_hermite": EnsembleSpec("beta_hermite", beta=2.0),
    "hatano_nelson": EnsembleSpec("hatano_nelson"),
    "generic_iid": EnsembleSpec("generic_iid", a_law=RADEMACHER, d_law=RADEMACHER,
                                b_law=RADEMACHER),
    "generic_iid-symmetric": EnsembleSpec(
        "generic_iid", a_law=EntryLaw("gaussian", (0.0, 1.0)),
        d_law=EntryLaw("bernoulli", (0.3, -2.0, 5.0)), symmetric=True),
    "birth_death_q": EnsembleSpec("birth_death_q"),
    "birth_death_q-symmetric": EnsembleSpec("birth_death_q", symmetric=True),
    "birth_death_kernel-v": EnsembleSpec("birth_death_kernel"),
    "birth_death_kernel-conductance": EnsembleSpec("birth_death_kernel",
                                                   kernel_variant="conductance"),
}

LAWS = [
    EntryLaw("constant", (0.7,)),
    EntryLaw("uniform", (-1.0, 2.0)),
    EntryLaw("bernoulli", (0.3, -2.0, 5.0)),
    EntryLaw("gaussian", (0.5, 1.5)),
    EntryLaw("rademacher"),
]
# (law, exact support, atoms and symmetric_zero_mean) at edge parameters;
# repr tells -0.0 from 0.0
EDGE_LAWS = [
    (EntryLaw("bernoulli", (0.0, 1.0, 2.0)), (1.0, 2.0), ((1.0, 1.0), (2.0, 0.0)), False),
    (EntryLaw("bernoulli", (1.0, 2.0, 1.0)), (1.0, 2.0), ((2.0, 0.0), (1.0, 1.0)), False),
    (EntryLaw("bernoulli", (0.5, -1.0, 1.0)), (-1.0, 1.0), ((-1.0, 0.5), (1.0, 0.5)), True),
    (EntryLaw("bernoulli", (0.5, 2.0, 2.0)), (2.0, 2.0), ((2.0, 0.5), (2.0, 0.5)), False),
    (EntryLaw("bernoulli", (0.5, -0.0, 0.0)), (-0.0, -0.0), ((-0.0, 0.5), (0.0, 0.5)), True),
    (EntryLaw("uniform", (-3.0, 3.0)), (-3.0, 3.0), None, True),
    (EntryLaw("uniform", (0.0, 1.0)), (0.0, 1.0), None, False),
    (EntryLaw("constant", (-0.0,)), (-0.0, -0.0), ((-0.0, 1.0),), True),
    (EntryLaw("gaussian", (0.0, 0.0)), None, None, True),
    (EntryLaw("rademacher"), (-1.0, 1.0), ((-1.0, 0.5), (1.0, 0.5)), True),
]
# every malformed law with its exact message: (id, text, the kind and numbers
# it parses to, or None where it parses to none, message)
BAD_LAWS = [
    ("empty", "", None, "unparseable law: ''"),
    ("unclosed", "uniform(1,", None, "unparseable law: 'uniform(1,'"),
    ("non-numeric", "uniform(a,b)", None, "non-numeric law parameter: 'uniform(a,b)'"),
    ("unknown-kind", "nosuch(1)", ("nosuch", (1.0,)), "unknown law kind: 'nosuch'"),
    ("rademacher-arity", "rademacher(3)", ("rademacher", (3.0,)),
     "rademacher law takes 0 parameters, got (3.0,)"),
    ("arity", "uniform(1)", ("uniform", (1.0,)), "uniform law takes 2 parameters, got (1.0,)"),
    ("constant-arity", "Constant", ("constant", ()), "constant law takes 1 parameter, got ()"),
    ("bernoulli-arity", "bernoulli(0.5,1)", ("bernoulli", (0.5, 1.0)),
     "bernoulli law takes 3 parameters, got (0.5, 1.0)"),
    ("gaussian-arity", "gaussian(0,1,2)", ("gaussian", (0.0, 1.0, 2.0)),
     "gaussian law takes 2 parameters, got (0.0, 1.0, 2.0)"),
    ("non-finite", "gaussian(0,nan)", ("gaussian", (0.0, math.nan)),
     "gaussian law parameter must be finite, got nan"),
    ("infinite", "constant(inf)", ("constant", (math.inf,)),
     "constant law parameter must be finite, got inf"),
    ("hi-below-lo", "uniform(2,1)", ("uniform", (2.0, 1.0)), "uniform law needs hi > lo"),
    ("empty-interval", "uniform(-0.0,0.0)", ("uniform", (-0.0, 0.0)), "uniform law needs hi > lo"),
    ("infinite-width", "uniform(-1e308,1e308)", ("uniform", (-1e308, 1e308)),
     "uniform law needs a finite width hi - lo"),
    ("p-above-one", "bernoulli(1.5,0,1)", ("bernoulli", (1.5, 0.0, 1.0)),
     "bernoulli p outside [0, 1]"),
    ("negative-sigma", "gaussian(0,-1)", ("gaussian", (0.0, -1.0)), "gaussian sigma must be >= 0"),
]
PARSED_BAD_LAWS = [row for row in BAD_LAWS if row[2] is not None]


class TestEntryLaw:
    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind)
    def test_moment_sanity(self, law):
        rng = np.random.default_rng(2024)
        draws = law.sample(rng, 100_000)
        se_mean = math.sqrt(max(law.variance, 1e-30) / draws.size)
        assert abs(draws.mean() - law.mean) <= 4 * se_mean + 1e-12
        if law.variance > 0:
            # crude but sufficient band for the sample variance
            assert abs(draws.var() - law.variance) <= 0.05 * law.variance

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind)
    def test_support_contains_samples(self, law):
        rng = np.random.default_rng(7)
        draws = law.sample(rng, 10_000)
        if law.support is not None:
            lo, hi = law.support
            assert np.all(draws >= lo) and np.all(draws <= hi)

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind)
    def test_parse_roundtrip(self, law):
        assert EntryLaw.parse(str(law)) == law

    def test_parse_rejects_garbage(self):
        for _, text, parsed, message in BAD_LAWS:
            if parsed is None:
                with pytest.raises(InvalidArgumentError) as info:
                    EntryLaw.parse(text)
                assert str(info.value) == message

    @pytest.mark.parametrize("text, parsed, message", [row[1:] for row in PARSED_BAD_LAWS],
                             ids=[row[0] for row in PARSED_BAD_LAWS])
    def test_direct_construction_is_validated(self, text, parsed, message):
        # a law that parses to a kind and its numbers fails as the constructor
        # fails on them, with the one message
        for build in (lambda: EntryLaw.parse(text), lambda: EntryLaw(*parsed)):
            with pytest.raises(InvalidArgumentError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("kind, params, message", [
        ("constant", 1.0, "constant law parameters must be a tuple, got 1.0"),
        (["uniform"], (0, 1), "unknown law kind: ['uniform']"),
        ("uniform", ("a", "b"), "uniform law parameter must be a real number, got 'a'"),
        ("bernoulli", (True, 0, 1), "bernoulli law parameter must be a real number, got True"),
    ], ids=["params-not-a-tuple", "kind-not-a-string", "string-parameter", "bool-parameter"])
    def test_direct_construction_is_typed(self, kind, params, message):
        # each once raised a bare TypeError or ValueError, or (the bool) ran as p=1
        with pytest.raises(InvalidArgumentError) as info:
            EntryLaw(kind, params)
        assert str(info.value) == message
        assert EntryLaw("uniform", [np.float64(0.0), np.int64(1)]).params == (0.0, 1.0)

    @pytest.mark.parametrize("law, support, atoms, symmetric", EDGE_LAWS,
                             ids=[str(row[0]) for row in EDGE_LAWS])
    def test_exact_support_atoms_and_symmetry(self, law, support, atoms, symmetric):
        assert repr((law.support, law.atoms)) == repr((support, atoms))
        assert law.symmetric_zero_mean is symmetric
        assert law.is_bounded == (support is not None)

    @pytest.mark.parametrize("text", ["gaussian(0,nan)", "constant(inf)", "bernoulli(0.5,inf,1)",
                                      "uniform(-inf,0)", "bernoulli(nan,0,1)"])
    def test_non_finite_parameters_are_rejected(self, text):
        # bernoulli(0.5,inf,1) once became a "bounded" law with support (1, inf)
        kind = text.split("(")[0]
        with pytest.raises(InvalidArgumentError, match=f"^{kind} law parameter must be finite"):
            EntryLaw.parse(text)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 400, 401, (3, 5), (7, 9), (1, 401)])
    def test_rademacher_raw_words_match_integers(self, size):
        # EntryLaw.sample is the integers(0, 2) definition that the draw hook's
        # raw-word signs are pinned against (test_hook_signs_match_integers);
        # the draw after the first starts on the half word an odd count leaves
        law = EntryLaw("rademacher")
        for seed in range(4):
            got = np.random.Generator(np.random.Philox(seed))
            want = np.random.Generator(np.random.Philox(seed))
            for _ in range(3):
                signs = law.sample(got, size)
                assert signs.shape == np.empty(size).shape
                np.testing.assert_array_equal(signs, want.integers(0, 2, size) * 2.0 - 1.0)
                have, ref = got.bit_generator.state, want.bit_generator.state
                assert have["has_uint32"] == ref["has_uint32"]
                if ref["has_uint32"]:
                    assert have["uinteger"] == ref["uinteger"]
            np.testing.assert_array_equal(got.integers(0, 2**32, 5, dtype=np.uint32),
                                          want.integers(0, 2**32, 5, dtype=np.uint32))

    def test_log_mgf_against_empirical(self):
        rng = np.random.default_rng(99)
        for law in LAWS:
            draws = law.sample(rng, 200_000)
            for t in (-0.7, 0.3, 1.1):
                estimate = math.log(np.exp(t * draws).mean())
                assert abs(law.log_mgf(t) - estimate) < 0.05

    def test_symmetric_zero_mean_flags(self):
        assert EntryLaw("rademacher").symmetric_zero_mean
        assert EntryLaw("uniform", (-2, 2)).symmetric_zero_mean
        assert EntryLaw("gaussian", (0, 3)).symmetric_zero_mean
        assert EntryLaw("bernoulli", (0.5, -1, 1)).symmetric_zero_mean
        assert not EntryLaw("uniform", (0, 1)).symmetric_zero_mean
        assert not EntryLaw("bernoulli", (0.4, -1, 1)).symmetric_zero_mean


class TestSpecValidation:
    def test_unknown_model_is_named(self):
        with pytest.raises(InvalidArgumentError, match="unknown model 'nonsense'"):
            EnsembleSpec("nonsense")

    @pytest.mark.parametrize("model, fields, message", [
        ("beta_hermite", {"beta": "2"}, "beta must be a real number, got '2'"),
        ("beta_hermite", {"beta": True}, "beta must be a real number, got True"),
        (["anderson"], {}, "model must be of type str, got ['anderson']"),
        ("anderson", {"d_law": "rademacher"},
         "d_law must be of type EntryLaw, got 'rademacher'"),
        ("birth_death_kernel", {"kernel_law": "uniform(0,1)"},
         "kernel_law must be of type EntryLaw, got 'uniform(0,1)'"),
        ("birth_death_kernel", {"kernel_variant": 1}, "kernel_variant must be of type str, got 1"),
        ("hatano_nelson", {"a_law": 1.0}, "a_law must be of type EntryLaw, got 1.0"),
        ("generic_iid", {"symmetric": "yes", "a_law": RADEMACHER, "d_law": RADEMACHER},
         "symmetric must be of type bool, got 'yes'"),
    ], ids=["beta-string", "beta-bool", "model-list", "d_law-text", "kernel_law-text",
            "kernel_variant-int", "a_law-float", "symmetric-string"])
    def test_fields_are_typed_at_the_constructor(self, model, fields, message):
        # each once raised a bare TypeError or AttributeError, failed only when
        # sampled, ran (beta=True as beta=1) or was stored as given ("yes")
        with pytest.raises(InvalidArgumentError) as info:
            EnsembleSpec(model, **fields)
        assert str(info.value) == message

    def test_fields_are_stored_in_their_types(self):
        # beta=2 describes as 2.0, as the CLI's parsed --beta 2 does, and a
        # numpy bool is stored as a bool, which json can write
        spec = EnsembleSpec("beta_hermite", beta=2)
        assert type(spec.beta) is float and spec.describe()["beta"] == 2.0
        assert EnsembleSpec("beta_hermite", beta=np.float64(2.0)) == spec
        spec = EnsembleSpec("generic_iid", np.True_, a_law=RADEMACHER, d_law=RADEMACHER)
        assert spec.symmetric is True
        assert json.loads(json.dumps(spec.describe()))["symmetric"] is True
        assert EnsembleSpec("anderson", np.True_) == EnsembleSpec("anderson")

    def test_beta_hermite_forces_symmetry(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleSpec(model="beta_hermite", symmetric=False, beta=2.0)
        with pytest.raises(InvalidArgumentError):
            EnsembleSpec(model="beta_hermite", symmetric=True, beta=-1.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_beta_hermite_needs_a_finite_beta(self, beta):
        # an infinite beta was once accepted and failed only when sampled
        with pytest.raises(InvalidArgumentError, match=f"^beta must be finite, got {beta}"):
            EnsembleSpec("beta_hermite", beta=beta)

    def test_bounded_follows_laws(self):
        gaussian = EntryLaw("gaussian", (0, 1))
        assert EnsembleSpec("anderson").bounded
        assert not EnsembleSpec("anderson", d_law=gaussian).bounded
        assert not EnsembleSpec(model="anderson", symmetric=True, d_law=gaussian).bounded
        assert not EnsembleSpec("beta_hermite", beta=2.0).bounded
        assert not EnsembleSpec("generic_iid", a_law=RADEMACHER, d_law=RADEMACHER,
                                b_law=gaussian).bounded
        assert EnsembleSpec("generic_iid", a_law=RADEMACHER, d_law=RADEMACHER,
                            symmetric=True).bounded
        assert all(SPECS[name].bounded for name in SPECS
                   if name not in ("beta_hermite", "generic_iid-symmetric"))
        for spec in SPECS.values():
            assert spec.describe()["bounded"] is spec.bounded

    def test_positive_offdiagonal_required(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleSpec("birth_death_q", a_law=EntryLaw("uniform", (-1.0, 1.0)))
        with pytest.raises(InvalidArgumentError):
            EnsembleSpec("hatano_nelson", a_law=EntryLaw("gaussian", (0, 1)))

    def test_kernel_law_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleSpec("birth_death_kernel", kernel_law=EntryLaw("uniform", (-0.5, 0.5)),
                         kernel_variant="v")

    def test_iid_type_classification(self):
        assert EnsembleSpec("anderson").is_iid_type
        assert EnsembleSpec("birth_death_q").is_iid_type
        assert EnsembleSpec("birth_death_kernel").is_iid_type
        assert not EnsembleSpec("birth_death_kernel", kernel_variant="conductance").is_iid_type
        assert not EnsembleSpec("beta_hermite", beta=2.0).is_iid_type


class TestModelTable:
    @pytest.mark.parametrize("kwargs, unread", [
        ({"model": "anderson", "symmetric": True, "d_law": RADEMACHER,
          "a_law": EntryLaw("uniform", (0.0, 1.0))}, "a_law"),
        ({"model": "hatano_nelson", "symmetric": True, "b_law": EntryLaw("uniform", (2.0, 3.0))},
         "symmetric"),
        ({"model": "birth_death_kernel", "symmetric": True}, "symmetric"),
        ({"model": "beta_hermite", "symmetric": False, "beta": 2.0}, "symmetric"),
        ({"model": "generic_iid", "symmetric": True, "a_law": RADEMACHER,
          "d_law": RADEMACHER, "b_law": RADEMACHER}, "b_law"),
    ], ids=["anderson-a_law", "hatano-symmetric", "kernel-symmetric", "beta-asymmetric",
            "symmetric-b_law"])
    def test_a_field_the_model_does_not_read_is_an_error(self, kwargs, unread):
        # each of the first three was once accepted: the anderson spec
        # recorded its a_law, the hatano_nelson one a b_law no entry was drawn
        # from, and the kernel one claimed a symmetry its matrices lack
        with pytest.raises(InvalidArgumentError,
                           match=f"^ensemble model {kwargs['model']} does not read {unread}"):
            EnsembleSpec(**kwargs)

    def test_every_key_is_an_ensemble_setting(self):
        settings = main.__globals__["_SETTINGS"]
        for model in _MODELS.values():
            for key in model.fields:
                assert settings[key].section == "ensemble", key

    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_every_model_builds_with_its_defaults(self, name):
        # only the required fields (default None) are given
        model = _MODELS[name]
        required = {key: 2.0 if key == "beta" else RADEMACHER
                    for key, default in model.fields.items() if default is None}
        spec = EnsembleSpec(name, **required)
        for key, default in model.fields.items():
            if default is not None and not callable(default):
                assert getattr(spec, key) == default, key
        assert spec.symmetric is model.fields.get("symmetric", model.symmetric)
        assert spec.describe().keys() == {"model", "symmetric", "bounded", *model.fields}
        if required:
            with pytest.raises(InvalidArgumentError, match=f"^{name} requires"):
                EnsembleSpec(name)

    def test_restating_a_fixed_symmetry_is_allowed(self):
        assert EnsembleSpec("anderson", True) == EnsembleSpec("anderson")
        assert EnsembleSpec("beta_hermite", True, beta=2.0) == EnsembleSpec("beta_hermite",
                                                                            beta=2.0)

    @pytest.mark.parametrize("name, symmetric", [
        ("anderson", False), ("hatano_nelson", True), ("birth_death_kernel", True)])
    def test_contradicting_a_fixed_symmetry_is_an_error(self, name, symmetric):
        # restating the model's value reads nothing, for either value
        assert EnsembleSpec(name, not symmetric) == EnsembleSpec(name)
        with pytest.raises(InvalidArgumentError, match=f"{name} does not read symmetric"):
            EnsembleSpec(name, symmetric)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_replace_copies_every_spec(self, name):
        # a filled spec restates its own symmetry, which replace passes back in
        spec = SPECS[name]
        assert dataclasses.replace(spec) == spec
        if "d_law" in _MODELS[spec.model].fields:
            assert dataclasses.replace(spec, d_law=RADEMACHER).d_law == RADEMACHER

    @pytest.mark.parametrize("build", [
        lambda law: EnsembleSpec("generic_iid", a_law=RADEMACHER, d_law=RADEMACHER, b_law=law,
                                 symmetric=True),
        lambda law: EnsembleSpec("birth_death_q", b_law=law, symmetric=True),
    ], ids=["generic_iid", "birth_death_q"])
    def test_symmetric_constructor_rejects_a_b_law(self, build):
        # a symmetric spec's b is its a, so a b_law given beside it reads nothing
        with pytest.raises(InvalidArgumentError, match="does not read b_law"):
            build(EntryLaw("uniform", (0.5, 1.5)))
        assert build(None).b_law is None


class TestSampleMatrix:
    def test_anderson_fixed_offdiagonals(self):
        spec = EnsembleSpec("anderson", d_law=EntryLaw("constant", (0.0,)))
        m = sample_matrix(spec, 9, 4)
        assert np.all(m.diag == 0.0)
        assert np.all(m.sub == -1.0) and np.all(m.sup == -1.0)

    def test_birth_death_q_constant_entries(self):
        spec = EnsembleSpec("birth_death_q", a_law=EntryLaw("constant", (1.0,)),
                            b_law=EntryLaw("constant", (1.0,)))
        m = sample_matrix(spec, 6, 0)
        assert m.diag[0] == -1.0
        assert np.all(m.diag[1:] == -2.0)

    def test_birth_death_q_rule_exact(self):
        spec = EnsembleSpec("birth_death_q")
        m = sample_matrix(spec, 40, 13)
        a_prev = np.concatenate(([0.0], m.sub))
        # rows 1..n-1 can be checked from stored entries alone
        assert np.array_equal(m.diag[:-1], -(a_prev[:-1] + m.sup))
        assert m.diag[-1] < -m.sub[-1]  # sequence value of b_n is strictly positive

    def test_kernel_rows_sum_to_one(self):
        for variant in ("v", "conductance"):
            spec = EnsembleSpec("birth_death_kernel", kernel_variant=variant)
            m = sample_matrix(spec, 12, 8)
            sums = m.to_dense().sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-12)
            assert np.all(m.sub > 0) and np.all(m.sub <= 1)
            assert np.all(m.sup > 0) and np.all(m.sup <= 1)
            assert m.sup[0] == 1.0 and m.sub[-1] == 1.0

    def test_beta_hermite_symmetric_matrix(self):
        spec = EnsembleSpec("beta_hermite", beta=2.0)
        m = sample_matrix(spec, 50, 21)
        assert np.array_equal(m.sub, m.sup)
        assert np.all(m.sub > 0)

    def test_beta_hermite_chi_square_scaling(self):
        # (a_i / sqrt(i))^2 averages to 1; band is three standard errors wide
        spec = EnsembleSpec("beta_hermite", beta=2.0)
        n = 10_000
        m = sample_matrix(spec, n, 1234)
        i = np.arange(1, n)
        sel = i >= 5000
        ratios = (m.sub[sel] ** 2) / i[sel]
        se = math.sqrt(np.sum(1.0 / i[sel])) / sel.sum()
        assert abs(ratios.mean() - 1.0) <= 3 * se

    def test_determinism_bitwise(self):
        for spec in (EnsembleSpec("anderson"), EnsembleSpec("beta_hermite", beta=1.5),
                     EnsembleSpec("birth_death_kernel"), EnsembleSpec("hatano_nelson")):
            m1 = sample_matrix(spec, 17, 99)
            m2 = sample_matrix(spec, 17, 99)
            assert np.array_equal(m1.sub, m2.sub)
            assert np.array_equal(m1.diag, m2.diag)
            assert np.array_equal(m1.sup, m2.sup)
            m3 = sample_matrix(spec, 17, 100)
            assert not (np.array_equal(m1.diag, m3.diag)
                        and np.array_equal(m1.sub, m3.sub))

    def test_n_too_small(self):
        with pytest.raises(InvalidArgumentError):
            sample_matrix(EnsembleSpec("anderson"), 1, 0)


class TestSampleWindow:
    def test_first_index_one_zeroes_a_slot(self):
        specs = [EnsembleSpec("anderson"), EnsembleSpec("birth_death_q"),
                 EnsembleSpec("birth_death_kernel"), EnsembleSpec("beta_hermite", beta=2.0),
                 EnsembleSpec("hatano_nelson"),
                 EnsembleSpec("generic_iid", a_law=EntryLaw("uniform", (0.5, 1.5)),
                              d_law=EntryLaw("rademacher"), symmetric=True)]
        for spec in specs:
            a, _, _ = sample_window_arrays(spec, 1, 5, 1, 3)
            assert a[0, 0] == 0.0

    def test_constant_generic_window(self):
        spec = EnsembleSpec("generic_iid", a_law=EntryLaw("constant", (2.0,)),
                            d_law=EntryLaw("constant", (-1.0,)),
                            b_law=EntryLaw("constant", (3.0,)))
        a, d, b = sample_window_arrays(spec, 4, 6, 1, 0)
        assert np.all(a == 2.0) and np.all(d == -1.0) and np.all(b == 3.0)

    def test_window_determinism(self):
        spec = EnsembleSpec("birth_death_q")
        w1 = sample_window_arrays(spec, 2, 8, 1, 55)
        w2 = sample_window_arrays(spec, 2, 8, 1, 55)
        for x1, x2 in zip(w1, w2):
            assert np.array_equal(x1, x2)

    def test_window_coupling_rules_hold(self):
        a, d, b = sample_window_arrays(EnsembleSpec("birth_death_q"), 3, 10, 1, 7)
        assert np.array_equal(d, -(a + b))
        for variant in ("v", "conductance"):
            spec = EnsembleSpec("birth_death_kernel", kernel_variant=variant)
            a, d, b = sample_window_arrays(spec, 2, 10, 1, 7)
            assert np.allclose(a + d + b, 1.0, atol=1e-12)

    def test_symmetric_window_shares_stream(self):
        spec = EnsembleSpec("generic_iid", a_law=EntryLaw("uniform", (0.5, 1.5)),
                            d_law=EntryLaw("rademacher"), symmetric=True)
        a, _, b = sample_window_arrays(spec, 2, 6, 1, 19)
        # b at site s equals a-slot of site s+1 (both are the same entry)
        assert np.array_equal(b[:, :-1], a[:, 1:])

    def test_beta_hermite_window_matches_matrix_law(self):
        # same absolute indices must carry the same chi-square scale
        spec = EnsembleSpec("beta_hermite", beta=2.0)
        reps = 4000
        a, d, b = sample_window_arrays(spec, 10, 3, reps, 5)
        # b[:, 0] collects a_10 over replicas: mean^2 ~ 10 - 1/4 for beta=2
        mean_sq = (b[:, 0] ** 2).mean()
        assert abs(mean_sq - 10.0) < 0.3

    def test_window_matrix_marginal_means_agree(self):
        spec = EnsembleSpec("birth_death_q")
        reps = 3000
        a, d, b = sample_window_arrays(spec, 2, 4, reps, 31)
        mats = [sample_matrix(spec, 8, trial_seed_sequence(31, t)) for t in range(reps)]
        d3_matrix = np.array([m.diag[2] for m in mats])  # site 3, away from boundary
        d3_window = d[:, 1]
        assert abs(d3_matrix.mean() - d3_window.mean()) < 4 * d3_matrix.std() / math.sqrt(reps)

    def test_window_validation(self):
        with pytest.raises(InvalidArgumentError):
            sample_window_arrays(EnsembleSpec("anderson"), 0, 4, 1, 1)
        with pytest.raises(InvalidArgumentError):
            sample_window_arrays(EnsembleSpec("anderson"), 1, 0, 1, 1)

    @pytest.mark.parametrize("name", [k for k, v in SPECS.items() if v.model != "birth_death_kernel"])
    @pytest.mark.parametrize("n", [2, 3, 17, 400, 401])
    def test_matrix_is_head_of_window_bitwise(self, name, n):
        spec = SPECS[name]
        for seed in (0, 5, trial_seed_sequence(7, 3)):
            m = sample_matrix(spec, n, seed)
            a, d, b = sample_window_arrays(spec, 1, n + 3, 1, seed)
            for part, head in (("sub", a[0, 1:n]), ("diag", d[0, :n]), ("sup", b[0, :n - 1])):
                assert head.tobytes() == getattr(m, part).tobytes(), part

    @pytest.mark.parametrize("variant", ["v", "conductance"])
    @pytest.mark.parametrize("n", [2, 3, 17, 400])
    def test_kernel_matrix_is_head_of_window_but_last_row(self, variant, n):
        spec = EnsembleSpec("birth_death_kernel", kernel_variant=variant)
        for seed in (0, 5):
            m = sample_matrix(spec, n, seed)
            a, d, b = sample_window_arrays(spec, 1, n + 3, 1, seed)
            assert b[0, :n - 1].tobytes() == m.sup.tobytes()
            assert a[0, 1:n - 1].tobytes() == m.sub[:-1].tobytes()
            assert d[0, :n - 1].tobytes() == m.diag[:-1].tobytes()
            # reflecting right boundary: a_{n-1} = 1 and b_n = 0 in the matrix only
            assert (m.sub[-1], m.diag[-1]) == (1.0, 0.0)


# sha256 of sample_matrix(spec, 17, 20240611) and of the first_index=2
# windows sample_window_arrays(spec, 2, 9, 3, 20240611), taken under numpy 2.4.6
DRAW_DIGESTS = {
    "anderson": "6f00579d6324feccb944a74ce5d8847462217960be0fb16fea248b2be25e582a",
    "beta_hermite": "62278c80becb9465358b2f0042deeb84ffb396b3f41b9f05c2ab32dc71e334e4",
    "hatano_nelson": "3dc99219a61fc7a770616e8d3b36ee693beaa68e9027031fc0c2be95ee65faa1",
    "generic_iid": "ff4bcb21c7636f294bbc1188d8b184f80a7228f96869c2354ebec83d1911e322",
    "generic_iid-symmetric": "7c801410cc3da94c77b2ef8d71b72639561c1608e0a81a2adca181d53d6ba7c9",
    "birth_death_q": "5b8a9c8f0ef1015c7ae48ff3aff65c3fb364e6ff386900d91d0b8aedfe04bb42",
    "birth_death_q-symmetric": "da6bd3fb2e95224baae397e1a161bf5f1ba8d6b657af32310e29f2949e8dc195",
    "birth_death_kernel-v": "68d1aae9f616a2f6ba04a29e05129a418324fc4b9c2ca2fdd4bbc692111de11f",
    "birth_death_kernel-conductance":
        "19c8e006aa29ee1fe97ec8a8c79601f9616e7b6fcc85a7081c31112afeb86860",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_seeded_draws_are_pinned(name):
    spec = SPECS[name]
    digest = hashlib.sha256()
    m = sample_matrix(spec, 17, 20240611)
    for arr in (m.sub, m.diag, m.sup, *sample_window_arrays(spec, 2, 9, 3, 20240611)):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == DRAW_DIGESTS[name], (
        f"seeded draws of {name} changed under numpy {np.__version__}; "
        "the digests were taken under numpy 2.4.6")


@pytest.mark.parametrize("width", [1, 2, 3, 7, 401])
@pytest.mark.parametrize("segments,rows", [(1, 1), (1, 5), (4, 4), (2, 6)])
@pytest.mark.parametrize("head", [None, 0.0])
def test_hook_signs_match_integers(width, segments, rows, head):
    # Each segment's stream draws the signs of its rows row-major, as
    # integers(0, 2) on a fresh generator would; (2, 6) has three rows a
    # segment, so odd widths give odd sign counts behind one key.
    keys = np.random.default_rng(width).integers(0, 2 ** 64, (segments, 3, 2), dtype=np.uint64)
    draw = _Draws(rows, lambda i: keys[:, i])
    h = int(head is not None)
    out = draw(2, RADEMACHER, width + h, head)
    assert out.shape == (rows, width + h)
    if h:
        assert (out[:, 0] == head).all()
    per = rows // segments
    for s in range(segments):
        gen = np.random.Generator(np.random.Philox(key=keys[s, 2]))
        np.testing.assert_array_equal(out[s * per:(s + 1) * per, h:],
                                      gen.integers(0, 2, (per, width)) * 2.0 - 1.0)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("first_index", [1, 2])
def test_beta_hermite_rows_match_spelled_out_draws(beta, first_index):
    # Stream 0 of each segment draws its rows' chi^2 entries row-major as
    # gamma(shape, scale=2.0) on a fresh generator, and stream 1 the normal
    # diagonal.  At beta = 2 (the pinned digests' beta) a rewrite that scales
    # by 2/beta in one step keeps every bit; at beta = 1.5 and 3 it cannot.
    keys = np.random.default_rng(29).integers(0, 2 ** 64, (2, 2, 2), dtype=np.uint64)
    length, per = 9, 3
    a, d, b = _sample_sites(EnsembleSpec("beta_hermite", beta=beta), first_index, length,
                            _Draws(2 * per, lambda i: keys[:, i]))
    shape = np.arange(first_index - 1, first_index + length) * beta / 2.0
    for s in range(2):
        rows = slice(s * per, (s + 1) * per)
        gen = np.random.Generator(np.random.Philox(key=keys[s, 0]))
        off = np.sqrt(gen.gamma(shape, scale=2.0, size=(per, length + 1)) / beta)
        assert a[rows].tobytes() == off[:, :length].tobytes()
        assert b[rows].tobytes() == off[:, 1:].tobytes()
        gen = np.random.Generator(np.random.Philox(key=keys[s, 1]))
        assert d[rows].tobytes() == gen.normal(0.0, math.sqrt(2.0 / beta), (per, length)).tobytes()
    if first_index == 1:
        assert not a[:, 0].any()


@pytest.mark.parametrize("name", SPECS)
def test_hook_grows_for_a_later_call_with_more_rows(name):
    # a hook's slot buffers grow when a later call has more rows than its
    # first; each row still has the bits a fresh one-row hook draws for it
    keys = np.random.default_rng(30).integers(0, 2 ** 64, (5, 4, 2), dtype=np.uint64)
    draw = _Draws(2, lambda i: keys[:2, i])
    _sample_sites(SPECS[name], 1, 7, draw)
    draw.rows, draw.keys = 5, lambda i: keys[:, i]
    got = _sample_sites(SPECS[name], 1, 7, draw)
    for r in range(5):
        want = _sample_sites(SPECS[name], 1, 7, _Draws(1, lambda i: keys[r:r + 1, i]))
        for g, w in zip(got, want):
            assert g.shape == (5, 7) and g[r].tobytes() == w[0].tobytes()


class _RecordingDraws:
    """A stand-in hook for ``_sample_sites`` that records each call's slot,
    law and returned array."""

    def __init__(self, rows):
        self.rows, self.calls = rows, []

    def __call__(self, slot, law, width, head=None):
        out = np.full((self.rows, width), 0.5)
        self.calls.append((slot, law, out))
        return out


@pytest.mark.parametrize("spec", [
    *SPECS.values(), EnsembleSpec("hatano_nelson", d_law=RADEMACHER),
    EnsembleSpec("anderson", d_law=EntryLaw("uniform", (-1.0, 1.0)))])
def test_diagonal_slot_table_matches_the_site_sampler(spec):
    # A model is in the table exactly when _sample_sites returns, as the
    # diagonal, the whole draw of spec.d_law from one stream: the table's slot.
    draw = _RecordingDraws(3)
    _, d, _ = _sample_sites(spec, 1, 6, draw)
    sources = [(slot, law) for slot, law, out in draw.calls if np.shares_memory(out, d)]
    own_stream = (len(sources) == 1 and spec.d_law is not None
                  and sources[0][1] is spec.d_law and d.shape == (3, 6))
    assert own_stream == (spec.model in _DIAGONAL_SLOT)
    if own_stream:
        assert sources[0][0] == _DIAGONAL_SLOT[spec.model]


class TestSeeding:
    def test_trial_streams_distinct(self):
        g1 = np.random.Generator(np.random.Philox(trial_seed_sequence(5, 0)))
        g2 = np.random.Generator(np.random.Philox(trial_seed_sequence(5, 1)))
        assert not np.array_equal(g1.random(8), g2.random(8))

    def test_reused_seed_sequence_gives_same_draws(self):
        spec = SPECS["hatano_nelson"]
        ss = trial_seed_sequence(7, 3)
        first, again = sample_matrix(spec, 6, ss), sample_matrix(spec, 6, ss)
        fresh = sample_matrix(spec, 6, trial_seed_sequence(7, 3))
        for part in ("sub", "diag", "sup"):
            assert np.array_equal(getattr(first, part), getattr(again, part))
            assert np.array_equal(getattr(first, part), getattr(fresh, part))
        (a1, _, b1), (a2, _, b2) = (sample_window_arrays(spec, 2, 6, 1, ss) for _ in range(2))
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert ss.n_children_spawned == 0

    def test_negative_master_seed_accepted(self):
        assert as_seed_sequence(-3).entropy == ((-3) & 0xFFFFFFFFFFFFFFFF)

    @given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_trial_seeding_is_pure(self, master, trial):
        a = np.random.Generator(np.random.Philox(trial_seed_sequence(master, trial))).random(3)
        b = np.random.Generator(np.random.Philox(trial_seed_sequence(master, trial))).random(3)
        assert np.array_equal(a, b)

    @staticmethod
    def _seed_sequence_keys(master, trials, count):
        return np.array([[np.random.SeedSequence(master & 0xFFFFFFFFFFFFFFFF, spawn_key=(t, i))
                          .generate_state(2, np.uint64) for i in range(count)] for t in trials])

    @pytest.mark.parametrize("master", [0, 1, -3, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
    def test_block_keys_match_seed_sequence(self, master):
        for trials in (range(2048), range(2 ** 31, 2 ** 31 + 1), range(2 ** 32 - 1, 2 ** 32)):
            keys = _trial_keys(master, trials, 3)
            assert keys.dtype == np.uint64 and keys.shape == (len(trials), 3, 2)
            np.testing.assert_array_equal(keys, self._seed_sequence_keys(master, trials, 3))

    @given(st.integers(min_value=-2 ** 63, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=5),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_block_keys_match_seed_sequence_hypothesis(self, master, start, length, count):
        trials = range(start, min(start + length, 2 ** 32))
        np.testing.assert_array_equal(_trial_keys(master, trials, count).reshape(-1, count, 2),
                                      self._seed_sequence_keys(master, trials, count)
                                      .reshape(-1, count, 2))

    def test_block_keys_reject_indices_past_32_bits(self):
        for trials in (range(2 ** 32, 2 ** 32 + 1), range(2 ** 32 - 1, 2 ** 32 + 1), range(-1, 2)):
            with pytest.raises(InvalidArgumentError, match="2\\*\\*32"):
                _trial_keys(5, trials, 1)


def test_every_export_resolves():
    missing = [name for name in tritrace.__all__ if not hasattr(tritrace, name)]
    assert not missing, f"tritrace.__all__ names what the package does not define: {missing}"
