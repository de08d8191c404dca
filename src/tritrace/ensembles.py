"""Entry-law descriptors and samplers for tridiagonal random matrix models.

A model is described declaratively by an :class:`EnsembleSpec`; realizations
are pure functions of ``(spec, shape, seed)`` built on the counter-based
Philox generator, so per-trial streams never share state and a Monte Carlo
run is reproducible regardless of scheduling.  Every draw goes through one
hook, :class:`_Draws`: each stream of a segment of rows is one Philox stream
from counter zero that draws the segment row-major.  A window is one segment
per stream; a Monte Carlo chunk is one segment per trial.

Index conventions follow the matrix layout: site ``i`` (1-based) owns the
triple ``(a_{i-1}, d_i, b_i)`` of sub-, main- and super-diagonal entries,
with ``a_0 = 0``.  A window is the slot arrays ``(a, d, b)`` of
:func:`sample_window_arrays`.  One sampler draws the sites of windows and
matrices, and it never draws an entry the left boundary fixes.  So an
n-by-n realization is the first n sites of the window from site 1 with the
same seed: with ``a, d, b = sample_window_arrays(spec, 1, L, 1, seed)``,
``sample_matrix(spec, n, seed)`` has ``sub = a[0, 1:n]``, ``diag = d[0, :n]``
and ``sup = b[0, :n-1]`` bit for bit for every ``L >= n``.  Only the
birth-death kernel's matrix differs, in its last row: its reflecting right
boundary sets ``a_{n-1} = 1`` and ``d_n = 0``.
For coupled models the diagonal entry of the last site is built from the
untruncated entry sequence (``d_n`` uses the sequence value ``b_n``, even
though the matrix itself stores no ``b_n``).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .circuits import TridiagonalMatrix, _buffer, checked_int, checked_real
from .errors import InvalidArgumentError

KERNEL_VARIANTS = ("v", "conductance")

_LAW_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def _uniform_log_mgf(t: float, lo: float, hi: float) -> float:
    w = t * (hi - lo)
    if abs(w) < 1e-8:
        return t * (0.5 * (lo + hi)) + 0.5 * t * t * ((hi - lo) ** 2 / 12.0)
    # factor out the larger exponential, so expm1 never overflows
    if w > 0:
        return t * hi + math.log(-math.expm1(-w) / w)
    return t * lo + math.log(-math.expm1(w) / (-w))


def _bernoulli_log_mgf(t: float, p: float, v0: float, v1: float) -> float:
    x0, x1 = t * v0, t * v1
    m = max(x0, x1)
    return m + math.log((1 - p) * math.exp(x0 - m) + p * math.exp(x1 - m))


@dataclass(frozen=True)
class _Kind:
    """Everything one law kind knows, as functions of its parameters ``*p``:
    ``sample(rng, size, *p)``, ``log_mgf(t, *p)`` and the rest ``f(*p)``."""

    arity: int
    checks: tuple   # (predicate, message) pairs, tested after finiteness
    sample: Callable
    mean: Callable
    variance: Callable
    support: Callable   # closed support interval, or None for unbounded laws
    atoms: Callable     # (value, probability) pairs, or None unless purely discrete
    symmetric_zero_mean: Callable
    log_mgf: Callable   # log E exp(t X) in closed form


_KINDS = {
    "constant": _Kind(
        arity=1, checks=(),
        sample=lambda rng, size, c: np.full(size, c),
        mean=lambda c: c,
        variance=lambda c: 0.0,
        support=lambda c: (c, c),
        atoms=lambda c: ((c, 1.0),),
        symmetric_zero_mean=lambda c: c == 0.0,
        log_mgf=lambda t, c: t * c),
    "uniform": _Kind(
        arity=2,
        # numpy cannot draw on an infinitely wide interval
        checks=((lambda lo, hi: hi > lo, "uniform law needs hi > lo"),
                (lambda lo, hi: math.isfinite(hi - lo),
                 "uniform law needs a finite width hi - lo")),
        sample=lambda rng, size, lo, hi: rng.uniform(lo, hi, size),
        mean=lambda lo, hi: 0.5 * (lo + hi),
        variance=lambda lo, hi: (hi - lo) ** 2 / 12.0,
        support=lambda lo, hi: (lo, hi),
        atoms=lambda *p: None,
        symmetric_zero_mean=lambda lo, hi: lo == -hi,
        log_mgf=_uniform_log_mgf),
    "bernoulli": _Kind(
        arity=3, checks=((lambda p, v0, v1: 0.0 <= p <= 1.0, "bernoulli p outside [0, 1]"),),
        sample=lambda rng, size, p, v0, v1: np.where(rng.random(size) < p, v1, v0),
        mean=lambda p, v0, v1: (1 - p) * v0 + p * v1,
        variance=lambda p, v0, v1: p * (1 - p) * (v1 - v0) ** 2,
        support=lambda p, v0, v1: (min(v0, v1), max(v0, v1)),
        atoms=lambda p, v0, v1: ((v0, 1.0 - p), (v1, p)),
        symmetric_zero_mean=lambda p, v0, v1: p == 0.5 and v0 == -v1,
        log_mgf=_bernoulli_log_mgf),
    "gaussian": _Kind(
        arity=2, checks=((lambda mu, sigma: sigma >= 0, "gaussian sigma must be >= 0"),),
        sample=lambda rng, size, mu, sigma: rng.normal(mu, sigma, size),
        mean=lambda mu, sigma: mu,
        variance=lambda mu, sigma: sigma ** 2,
        support=lambda *p: None,
        atoms=lambda *p: None,
        symmetric_zero_mean=lambda mu, sigma: mu == 0.0,
        log_mgf=lambda t, mu, sigma: t * mu + 0.5 * (t * sigma) ** 2),
    "rademacher": _Kind(
        arity=0, checks=(),
        sample=lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0,
        mean=lambda: 0.0,
        variance=lambda: 1.0,
        support=lambda: (-1.0, 1.0),
        atoms=lambda: ((-1.0, 0.5), (1.0, 0.5)),
        symmetric_zero_mean=lambda: True,
        # log cosh(t), stable for large |t|
        log_mgf=lambda t: abs(t) + math.log1p(math.exp(-2.0 * abs(t))) - math.log(2.0)),
}


@dataclass(frozen=True)
class EntryLaw:
    """A scalar distribution used for one entry stream; its kind's record in
    ``_KINDS`` holds all its behaviour."""

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        law = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if law is None:
            raise InvalidArgumentError(f"unknown law kind: {self.kind!r}")
        if not isinstance(self.params, (tuple, list)):
            raise InvalidArgumentError(
                f"{self.kind} law parameters must be a tuple, got {self.params!r}")
        params = tuple(checked_real(f"{self.kind} law parameter", p) for p in self.params)
        if len(params) != law.arity:
            raise InvalidArgumentError(f"{self.kind} law takes {law.arity} "
                                       f"parameter{'s' * (law.arity != 1)}, got {params}")
        for ok, message in law.checks:
            if not ok(*params):
                raise InvalidArgumentError(message)
        object.__setattr__(self, "params", params)

    # -- constructors -------------------------------------------------
    @classmethod
    def rademacher(cls) -> "EntryLaw":   # read only by perfbench/layers.py
        return cls("rademacher")

    @classmethod
    def parse(cls, text: str) -> "EntryLaw":
        m = _LAW_RE.match(text.lower())
        if not m:
            raise InvalidArgumentError(f"unparseable law: {text!r}")
        kind, args = m.group(1), m.group(2)
        try:
            params = tuple(float(x) for x in args.split(",")) if args else ()
        except ValueError as exc:
            raise InvalidArgumentError(f"non-numeric law parameter: {text!r}") from exc
        return cls(kind, params)

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({','.join(repr(p) for p in self.params)})"

    # -- sampling and moments ------------------------------------------
    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return _KINDS[self.kind].sample(rng, size, *self.params)

    @property
    def mean(self) -> float:
        return _KINDS[self.kind].mean(*self.params)

    @property
    def variance(self) -> float:
        return _KINDS[self.kind].variance(*self.params)

    @property
    def support(self) -> tuple[float, float] | None:
        """Closed support interval, or None for unbounded laws."""
        return _KINDS[self.kind].support(*self.params)

    @property
    def is_bounded(self) -> bool:
        return self.support is not None

    @property
    def atoms(self) -> tuple[tuple[float, float], ...] | None:
        """(value, probability) pairs for purely discrete laws."""
        return _KINDS[self.kind].atoms(*self.params)

    @property
    def symmetric_zero_mean(self) -> bool:
        return _KINDS[self.kind].symmetric_zero_mean(*self.params)

    def log_mgf(self, t: float) -> float:
        """log E exp(t X) in closed form."""
        return _KINDS[self.kind].log_mgf(t, *self.params)


def _signs(words: np.ndarray, out: np.ndarray) -> None:
    """Write ``2 * bit - 1.0`` for the top bit of each 32-bit word into ``out``;
    ``words`` is overwritten."""
    np.right_shift(words, 31, out=words)
    np.multiply(words, 2.0, out=out)
    out -= 1.0


def _positive(law: EntryLaw | None) -> bool:   # a symmetric spec has no b_law
    return law is None or (law.is_bounded and law.support[0] > 0)


@dataclass(frozen=True)
class _Model:
    """Everything one ensemble model fixes about its spec.  ``fields`` maps
    each spec field it reads besides ``model`` (its ``[ensemble]`` keys) to
    a default: a value, a function of the values filled before it, or None
    if the field is required.  ``symmetric`` is the symmetry of a model that
    does not read it (True for a model symmetric by definition); restating
    that value reads nothing."""

    fields: dict
    checks: tuple = ()   # (predicate of the filled spec, message) pairs, tested in order
    symmetric: bool = False


_UNIT = EntryLaw("uniform", (0.5, 1.5))   # the default positive off-diagonal law

_MODELS = {
    "anderson": _Model({"d_law": EntryLaw("rademacher")}, symmetric=True),
    "beta_hermite": _Model({"beta": None}, symmetric=True,
                           checks=((lambda s: s.beta > 0, "beta_hermite requires beta > 0"),)),
    "hatano_nelson": _Model(
        {"a_law": _UNIT, "d_law": EntryLaw("uniform", (-1.0, 1.0)), "b_law": _UNIT},
        checks=((lambda s: _positive(s.a_law) and _positive(s.b_law),
                 "hatano_nelson off-diagonal laws must be strictly positive"),)),
    "birth_death_kernel": _Model(
        {"kernel_variant": "v",
         "kernel_law": lambda v: EntryLaw("uniform", (0.0, 1.0)) if v["kernel_variant"] == "v"
         else _UNIT},
        checks=((lambda s: s.kernel_variant in KERNEL_VARIANTS,
                 f"kernel_variant must be one of {KERNEL_VARIANTS}"),
                (lambda s: s.kernel_variant != "v" or (
                    s.kernel_law.is_bounded and 0 <= s.kernel_law.support[0]
                    and s.kernel_law.support[1] <= 1),
                 "kernel environment law must live on [0, 1]"),
                (lambda s: s.kernel_variant == "v" or _positive(s.kernel_law),
                 "conductance law must be strictly positive"))),
    "birth_death_q": _Model(
        {"symmetric": False, "a_law": _UNIT, "b_law": _UNIT},
        checks=((lambda s: _positive(s.a_law) and _positive(s.b_law),
                 "birth_death_q off-diagonal laws must be strictly positive"),)),
    "generic_iid": _Model({"symmetric": False, "a_law": None, "d_law": None, "b_law": None}),
}

_FIELD_TYPES = {"model": str, "kernel_variant": str, "symmetric": bool}   # the rest are laws


def _spec_field(name: str, value):
    """A given value of spec field ``name`` as the spec stores it (np.True_,
    which JSON cannot hold, as True), or an error naming the field."""
    if name == "beta":
        return checked_real(name, value)
    value = bool(value) if isinstance(value, np.bool_) else value
    kind = _FIELD_TYPES.get(name, EntryLaw)
    if not isinstance(value, kind):
        raise InvalidArgumentError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of the joint law of the entry triples, built as
    ``EnsembleSpec(model, **fields)``.  The model's record in ``_MODELS`` fills
    and checks the fields it reads, each given one typed by :func:`_spec_field`.
    A field set but not read is an error: it would be recorded as if it had
    shaped the draws."""

    model: str
    symmetric: bool | None = None
    beta: float | None = None
    a_law: EntryLaw | None = None
    d_law: EntryLaw | None = None
    b_law: EntryLaw | None = None
    kernel_law: EntryLaw | None = None
    kernel_variant: str | None = None

    def __post_init__(self):
        model = _MODELS.get(_spec_field("model", self.model))
        if model is None:
            raise InvalidArgumentError(f"unknown model {self.model!r}")
        values = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        if values["symmetric"] is not None:   # read first: it decides whether b_law is read
            values["symmetric"] = _spec_field("symmetric", values["symmetric"])
        if "symmetric" not in model.fields and values["symmetric"] == model.symmetric:
            values["symmetric"] = None   # restating the model's fixed value reads nothing
        given = values["symmetric"]
        symmetric = model.fields.get("symmetric", model.symmetric) if given is None else given
        # a symmetric matrix's b is its a
        reads = [name for name in model.fields if not (symmetric and name == "b_law")]
        unread = [name for name in values if values[name] is not None and name not in reads]
        if unread:
            raise InvalidArgumentError(
                f"ensemble model {self.model} does not read {', '.join(unread)}")
        values["symmetric"] = symmetric
        for name in reads:
            default = model.fields[name]
            if values[name] is not None:
                values[name] = _spec_field(name, values[name])
            else:
                values[name] = default(values) if callable(default) else default
        missing = [name for name in reads if values[name] is None]
        if missing:
            raise InvalidArgumentError(f"{self.model} requires {', '.join(missing)}")
        for name, value in values.items():
            object.__setattr__(self, name, value)
        for ok, message in model.checks:
            if not ok(self):
                raise InvalidArgumentError(message)

    # -- derived structure -------------------------------------------------
    @property
    def bounded(self) -> bool:
        """True when every entry has compact support: every entry law is
        bounded, and the model is not the Gaussian/chi beta-Hermite one."""
        return self.model != "beta_hermite" and all(
            law.is_bounded for law in (self.a_law, self.d_law, self.b_law, self.kernel_law)
            if law is not None)

    @property
    def is_iid_type(self) -> bool:
        """True when the site triples away from the boundary are i.i.d."""
        if self.model == "beta_hermite":
            return False
        if self.model == "birth_death_kernel":
            return self.kernel_variant == "v"
        return True

    @property
    def default_growth(self) -> tuple[float, float]:
        """Default (alpha, epsilon) polynomial-growth exponents for scaling."""
        return (0.5, 0.5) if self.model == "beta_hermite" else (0.0, 0.0)

    def describe(self) -> dict:
        """Flat, deterministic key/value form for provenance headers: the
        fields the model reads, laws as their text."""
        out = {"model": self.model, "symmetric": self.symmetric, "bounded": self.bounded}
        for f in fields(self)[2:]:
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = str(value) if isinstance(value, EntryLaw) else value
        return out


# ---------------------------------------------------------------------------
# Seeding


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Trial indices are one 32-bit spawn word each; larger ones would take two.
MAX_TRIALS = 1 << 32


def seed_int(seed) -> int:
    """An integer seed (a Python or numpy integer) as an int; anything else,
    a bool or float included, is an :class:`InvalidArgumentError`."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    raise InvalidArgumentError(f"seed must be an integer or a SeedSequence, got {seed!r}")


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed_int(seed) & _MASK64)


def trial_seed_sequence(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Keyed hash of (master_seed, trial_index); distinct trials never share a stream."""
    index = checked_int("trial_index", trial_index, 0, MAX_TRIALS - 1)
    return np.random.SeedSequence(seed_int(master_seed) & _MASK64, spawn_key=(index,))


def _child(seed, i: int) -> np.random.SeedSequence:
    """Child ``i`` of ``seed``, built as ``spawn`` builds it but without
    advancing a caller's sequence."""
    ss = as_seed_sequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                  pool_size=ss.pool_size)


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` on uint32 arrays; returns the hashed words
    and the next hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(const_next)
    return value ^ (value >> np.uint32(16)), const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _trial_keys(master_seed: int, trials: range, count: int) -> np.ndarray:
    """Philox keys of streams ``0 .. count-1`` of the consecutive ``trials``:
    ``keys[r, i]`` is
    ``SeedSequence(master_seed, spawn_key=(trials[r], i)).generate_state(2, uint64)``.

    That seed sequence hashes ``master_seed`` into a pool of four words, then
    mixes in the spawn words ``t`` and ``i``.  The first part is the pool of
    ``SeedSequence(master_seed)`` for every trial, and the hash constants do
    not depend on the data (the pool step leaves them at
    ``INIT_A * MULT_A**16``), so the spawn words of a whole range are mixed
    in with array operations.
    """
    if len(trials) and not 0 <= trials.start < trials.stop <= MAX_TRIALS:
        raise InvalidArgumentError(f"trial indices must lie in [0, 2**32), got {trials}")
    pool = np.random.SeedSequence(seed_int(master_seed) & _MASK64).pool[None, None, :]
    const = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32
    spawn_words = (np.arange(trials.start, trials.stop, dtype=np.int64)
                   .astype(np.uint32)[:, None, None],
                   np.arange(count, dtype=np.uint32)[None, :, None])
    for word in spawn_words:
        hashed = []
        for _ in range(4):
            h, const = _hashmix(word, const)
            hashed.append(h)
        pool = _mix(pool, np.concatenate(hashed, axis=2))
    # generate_state(2, uint64): four uint32 words, paired little-endian
    const, state = _INIT_B, []
    for j in range(4):
        h, const = _hashmix(pool[..., j], const, _MULT_B)
        state.append(h.astype(np.uint64))
    return np.stack((state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)), axis=-1)


# ---------------------------------------------------------------------------
# Site sampling


class _Draws:
    """Draw hook of :func:`_sample_sites`: a window is one segment of rows, a
    Monte Carlo chunk one segment per trial.

    The rows split evenly into segments, and ``keys(i)`` gives the Philox key
    of stream ``i`` in each segment, a ``(segments, 2)`` array.  A segment's
    stream starts at counter zero and draws the segment's entries of a slot
    row-major with the law's sampler.  Keys are asked for only for streams
    that draw: a constant law draws nothing.  One generator serves every
    segment, and one loop, :meth:`_rekeyed`, re-keys it for each segment
    before that segment draws, whether through a sampler or :meth:`words`.

    Rademacher signs bypass the sampler.  ``integers(0, 2)`` never rejects:
    each sign is the top bit of one 32-bit word, and Philox serves the low,
    then the high half of each raw word.  So the ``w`` signs that
    :meth:`EntryLaw.sample` would draw from a fresh stream are the halves of
    its first ``ceil(w / 2)`` raw words, and :func:`_signs` transforms the
    words of all segments at once.  :meth:`words` draws those words alone;
    :func:`diagonal_sign_sums` counts their sign bits.

    Each slot has one buffer in ``bufs`` (:func:`circuits._buffer`), reused
    by every later call and grown when a call needs more, so an array is
    overwritten by the next call for its slot.  A constant law without a
    head column fills no buffer: its array is a read-only view of the one
    value.  Set ``rows`` and ``keys`` before each chunk.
    """

    def __init__(self, rows: int, keys=None, seed=0):
        self.rows, self.keys, self.bufs = rows, keys, {}
        # ``seed`` only builds the generator: every segment re-keys it before drawing
        self.gen = np.random.Generator(np.random.Philox(seed))
        # Philox is counter-based: a key with the counter and output buffer at
        # zero, set on the reused generator, draws what a new one would.
        self.fresh = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def _rekeyed(self, dest: np.ndarray, keys: np.ndarray, draw, *args) -> np.ndarray:
        """``dest[s] = draw(*args)`` with the generator keyed by ``keys[s]``."""
        bits, fresh = self.gen.bit_generator, self.fresh
        state = fresh["state"]
        for s, key in enumerate(keys.tolist()):
            state["key"] = key
            bits.state = fresh
            dest[s] = draw(*args)
        return dest

    def words(self, slot: int, keys: np.ndarray, signs: int) -> np.ndarray:
        """The first ``ceil(signs / 2)`` raw words of stream ``slot`` of each
        segment, one row per key of ``keys``: the words whose half-words
        carry the segment's first ``signs`` Rademacher signs."""
        words = _buffer(self.bufs, (slot, "<u8"), (len(keys), (signs + 1) // 2), "<u8")
        return self._rekeyed(words, keys, self.gen.bit_generator.random_raw, words.shape[1])

    def __call__(self, slot: int, law, width: int, head: float | None = None) -> np.ndarray:
        kind = getattr(law, "kind", None)
        if kind == "constant" and head is None:
            return np.broadcast_to(law.params[0], (self.rows, width))
        out = _buffer(self.bufs, slot, (self.rows, width))
        h = int(head is not None)
        if h:
            out[:, 0] = head
        if kind == "constant":
            out[:, h:] = law.params[0]
        elif law is not None:
            keys = self.keys(slot)
            dest = out[:, h:].reshape(len(keys), self.rows // len(keys), width - h)
            if kind == "rademacher":
                signs = dest[0].size
                words = self.words(slot, keys, signs)
                _signs(words.view("<u4")[:, :signs].reshape(dest.shape), dest)
            else:
                self._rekeyed(dest, keys, law.sample if kind else law, self.gen, dest.shape[1:])
        return out


def _window_draws(seed, rows: int) -> _Draws:
    """The hook of ``rows`` windows, one segment: stream ``i`` is child ``i``
    of ``seed``."""
    ss = as_seed_sequence(seed)
    # generate_state(2, uint64) is generate_state(4) paired little-endian; a
    # generator seeded by a built sequence is quicker to build than by an int
    return _Draws(rows, lambda i: _child(ss, i).generate_state(4).view("<u8")[None], ss)


_ANDERSON_OFF = EntryLaw("constant", (-1.0,))   # Anderson's off-diagonal entries
# Models whose diagonal is a stream of its own, drawn by ``spec.d_law`` from
# this slot of :func:`_sample_sites` (tests check the table against it).
_DIAGONAL_SLOT = {"anderson": 0, "hatano_nelson": 1, "generic_iid": 1}


def _sample_sites(spec: EnsembleSpec, first_index: int, length: int,
                  draw: _Draws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot arrays ``(a, d, b)``, each ``(draw.rows, length)``, of the sites
    ``first_index .. first_index + length - 1``.  ``a`` and ``b`` may share
    memory.  With ``f = first_index``, column ``t`` holds site ``f+t``'s
    triple: ``a[:, t] = a_{f+t-1}``, ``d[:, t] = d_{f+t}`` and
    ``b[:, t] = b_{f+t}``; from ``f = 1`` the slot ``a[:, 0]`` is exactly 0.

    ``draw(slot, law, width, head)`` returns a ``(rows, width)`` array: the
    draws of ``law`` (an :class:`EntryLaw` or a function ``(rng, size)``)
    from stream ``slot``, after a first column fixed to ``head`` unless that
    is None.  With ``law`` None nothing is drawn and the array is scratch
    space.  Constant laws draw nothing either, so their slots and scratch
    slots are any slot no stream of the model uses.  The array is the hook's
    own, overwritten by its next call for the slot; a constant law's array
    without a head column is a read-only view of its one value.  The one hook,
    :class:`_Draws`, serves windows as one segment of rows and Monte Carlo
    chunks as one segment per trial; a segment's stream draws its rows
    row-major.

    No entry the left boundary fixes is drawn: not ``a_0 = 0`` (entry 0 of
    a shared off-diagonal stream), nor the ``V_1`` or ``U_0`` behind the
    kernel's ``b_1 = 1``.  So each stream of a window from site 1 starts at
    the first entry an n-by-n matrix draws, and one row of ``n`` sites holds
    exactly that matrix's draws.

    Beta-Hermite's chi^2 entries are ``gamma(shape, scale=2.0)`` draws, taken
    as ``standard_gamma(shape)`` and doubled over the whole array: numpy
    defines the first as ``2.0 * standard_gamma(shape)``, so the bits agree,
    and its one-parameter loop is the faster.  The doubling and the division
    by ``beta`` stay two steps; one product by ``2/beta`` would round
    differently unless ``beta`` is a power of two.
    """
    f = first_index
    skip = int(f == 1)  # entries fixed at the left boundary, one per stream
    a0, b1 = (0.0, 1.0) if skip else (None, None)   # their values, as head columns

    model = spec.model
    if model == "anderson":
        off = draw(1, _ANDERSON_OFF, length + 1, a0)  # column t -> a_{f-1+t} = b_{f-1+t}
        return off[:, :length], draw(0, spec.d_law, length), off[:, 1:]

    if model == "beta_hermite":
        # numpy's gamma is exactly 0 at shape 0 and draws nothing for it: a_0 = 0
        shape = np.arange(f - 1, f + length, dtype=float) * spec.beta / 2.0
        off = draw(0, lambda rng, size: rng.standard_gamma(shape, size), length + 1)
        np.multiply(off, 2.0, out=off)          # gamma(shape, scale=2.0), bit for bit
        np.divide(off, spec.beta, out=off)
        np.sqrt(off, out=off)                   # column t -> a_{f-1+t} = b_{f-1+t}
        sd = math.sqrt(2.0 / spec.beta)
        d = draw(1, lambda rng, size: rng.normal(0.0, sd, size), length)
        return off[:, :length], d, off[:, 1:]

    if model in ("hatano_nelson", "generic_iid", "birth_death_q"):
        # Streams in order: a (one stream s_i = a_i = b_i when symmetric);
        # d, unless the coupling d_i = -(a_{i-1} + b_i) fixes it; b, unless
        # symmetric.  Column t of the a draws -> a_{f-1+t}.
        coupled, sym = model == "birth_death_q", int(spec.symmetric)
        a = draw(0, spec.a_law, length + sym, a0)
        b = a[:, 1:] if sym else draw(2 - coupled, spec.b_law, length)
        a = a[:, :length]
        if coupled:
            d = np.add(a, b, out=draw(3, None, length))
            np.negative(d, out=d)
        else:
            d = draw(1, spec.d_law, length)
        return a, d, b

    # birth_death_kernel, the one model left (EnsembleSpec rejects any other)
    if spec.kernel_variant == "v":
        b = draw(0, spec.kernel_law, length, b1)                           # b_i = V_i
    else:
        u = draw(0, spec.kernel_law, length + 1 - skip)                     # conductances
        b = draw(1, None, length, b1)
        ratio = b[:, skip:]                                                 # b_i = U_i/(U_i+U_{i-1})
        np.divide(u[:, 1:], np.add(u[:, 1:], u[:, :-1], out=ratio), out=ratio)
    a = np.subtract(1.0, b, out=draw(2, None, length))                    # a_{i-1} = 1 - b_i
    d = np.subtract(1.0, a, out=draw(3, None, length))
    d -= b                                                                 # 1 - a - b
    return a, d, b


def _matrix_rows(spec: EnsembleSpec, n: int,
                 draw: _Draws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sub, diag, sup)`` of ``draw.rows`` n-by-n realizations, as views of
    the hook's arrays: sites ``1 .. n`` of a window, with the birth-death
    kernel's reflecting right boundary."""
    a, d, b = _sample_sites(spec, 1, n, draw)
    if spec.model == "birth_death_kernel":
        a[:, -1], d[:, -1] = 1.0, 0.0     # a_{n-1} = 1 and b_n = 0, so d_n = 0
    return a[:, 1:], d, b[:, :-1]


def sample_matrix(spec: EnsembleSpec, n: int, seed) -> TridiagonalMatrix:
    """Draw one n-by-n realization; a deterministic function of (spec, n, seed).

    It is a one-row window hook's single segment, keyed by the children of
    ``seed``.  :func:`sample_matrix_chunks` draws through the same hook with
    one segment per trial and keys from :func:`_trial_keys`, so comparing
    the two checks two segmentings and two key derivations, not two draw
    routes."""
    n = checked_int("n", n, 2)
    sub, diag, sup = _matrix_rows(spec, n, _window_draws(seed, 1))
    return TridiagonalMatrix(sub=sub[0], diag=diag[0], sup=sup[0])


def sample_matrix_chunks(spec: EnsembleSpec, n: int, master_seed: int, trials: range,
                         rows: int):
    """The matrices of Monte Carlo ``trials``, ``rows`` trials at a time.

    Yields ``(chunk, sub, diag, sup)``: ``chunk`` is the sub-range of trials
    and row ``r`` of the ``(len(chunk), n-1)``, ``(len(chunk), n)`` and
    ``(len(chunk), n-1)`` arrays holds the diagonals of
    ``sample_matrix(spec, n, trial_seed_sequence(master_seed, chunk[r]))``,
    bit for bit.  The site sampler runs once per chunk, through a hook with
    one segment per trial (:class:`_Draws`): it re-keys one generator for
    each trial's stream and draws the row into a chunk buffer, then
    transforms the whole chunk.  The arrays are views of buffers that every
    chunk reuses, so a chunk must be used before the next one is requested.
    Non-finite entries raise :class:`InvalidArgumentError`, as in
    :class:`TridiagonalMatrix`, and so do trial indices outside
    ``[0, 2**32)``.
    """
    n = checked_int("n", n, 2)
    keys = _trial_keys(master_seed, trials, 3)
    draw = _Draws(rows)
    fixed_off = spec.model == "anderson"   # off-diagonals are _ANDERSON_OFF, a finite constant
    for lo in range(0, len(trials), rows):
        block = keys[lo:lo + rows]
        draw.rows, draw.keys = len(block), lambda i, block=block: block[:, i]
        sub, diag, sup = _matrix_rows(spec, n, draw)
        if not (np.isfinite(diag).all()
                and (fixed_off or (np.isfinite(sub).all() and np.isfinite(sup).all()))):
            raise InvalidArgumentError("matrix entries must be finite")
        yield trials[lo:lo + rows], sub, diag, sup


def counts_diagonal_signs(spec: EnsembleSpec) -> bool:
    """True when :func:`diagonal_sign_sums` serves ``spec``: its diagonal is
    a Rademacher stream of its own, and the spec is bounded, so the streams
    that route skips could not have drawn the non-finite entry that
    :func:`sample_matrix_chunks` rejects."""
    return (spec.model in _DIAGONAL_SLOT and spec.d_law.kind == "rademacher"
            and spec.bounded)


def diagonal_sign_sums(spec: EnsembleSpec, n: int, master_seed: int, trials: range,
                       rows: int) -> np.ndarray:
    """Diagonal sums of the matrices of Monte Carlo ``trials``, for a spec
    that :func:`counts_diagonal_signs` accepts, by counting sign bits.

    Entry ``r`` is ``2 * (count of +1 signs) - n`` for the diagonal of
    ``sample_matrix(spec, n, trial_seed_sequence(master_seed, trials[r]))``:
    the top bits of the first ``n`` half-words of that trial's diagonal
    stream, from the raw words :class:`_Draws` draws ``rows`` trials at a
    time.  No float row is built and no other stream is drawn.  The sum is
    an integer below 2**53, so it equals any exact or compensated sum of the
    row, bit for bit, and a zero sum is ``+0.0``.
    """
    n = checked_int("n", n, 2)
    slot = _DIAGONAL_SLOT[spec.model]
    keys = _trial_keys(master_seed, trials, slot + 1)[:, slot]
    draw = _Draws(rows)
    plus = np.empty(len(trials), np.int64)
    for lo in range(0, len(trials), rows):
        halves = draw.words(slot, keys[lo:lo + rows], n).view("<u4")[:, :n]
        plus[lo:lo + rows] = np.count_nonzero(halves >= 1 << 31, axis=1)
    return (2 * plus - n).astype(float)


# ---------------------------------------------------------------------------
# Window sampling


def sample_window_arrays(spec: EnsembleSpec, first_index: int, length: int,
                         count: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` independent windows as (count, length) slot arrays (a, d, b)
    in the layout of :func:`_sample_sites`; ``a`` and ``b`` may share memory.
    A slot of a constant law is a read-only view of its one value, unless it
    holds the head column that site 1 fixes.
    From site 1 a one-row window heads ``sample_matrix`` (module docstring);
    from later sites i.i.d.-type specs share its marginal law."""
    first_index = checked_int("first_index", first_index, 1)
    length = checked_int("length", length, 1)
    count = checked_int("count", count, 1)
    return _sample_sites(spec, first_index, length, _window_draws(seed, count))
