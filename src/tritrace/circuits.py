"""Closed-walk type tables and trace kernels for tridiagonal matrices.

The trace of the k-th power of a tridiagonal matrix is a sum over closed
walks of length k on the index path.  Walks fall into translation classes:
a class records the span of the walk, half the number of traversals of each
edge inside the span, and the number of stay-steps at each vertex.  Every
class has a position-independent multiplicity, so the trace collapses to a
short sum of windowed entry products:

    trace(M^k) = sum over classes of
                 count * sum_i prod_j (sub_{i+j} sup_{i+j})^{edge_j}
                               * prod_j diag_{i+j}^{loop_j}

This module builds the class tables from a closed form and evaluates
traces both through the expansion and through banded matrix powering, two
routes that are independent oracles for each other.  Monte Carlo traces take, for each
power, whichever of the expansion and a separate half-power banded kernel
is cheaper; that kernel stores only the upper diagonals of each half power
and reads the lower ones through the walk-reversal identity.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from math import comb, isfinite, prod

import numpy as np

from .accumulate import compensated_sum, compensated_sum_rows, fsum
from .errors import InvalidArgumentError, TriTraceError

K_MAX = 16
DENSE_CHECK_MAX = 128
# Smallest power that Monte Carlo traces evaluate by banded powering rather
# than the class expansion.  Banded over expansion time for one 2^14-entry
# Hatano-Nelson chunk (warm tracers, 2 vCPU; median of three runs, each the
# median of 7 timings; k=6 at n=400 ranged 1.07-1.10, at n=4000 0.61-1.04):
#
#     n:     100    400    1000   4000
#     k=5:   0.23   1.82   1.23   0.98
#     k=6:   0.13   1.09   0.75   0.63
#     k=7:   0.09   0.81   0.50   0.44
BANDED_MIN_K = 6


@dataclass(frozen=True)
class CircuitType:
    """One translation class of closed walks of length ``k``.

    ``half_edges[j]`` is half the number of traversals of the edge between
    offsets ``j`` and ``j+1`` from the leftmost vertex; ``loops[h]`` is the
    number of stay-steps at offset ``h``.  ``count`` is the number of walks
    in the class once the leftmost vertex is fixed.
    """

    k: int
    span: int
    half_edges: tuple[int, ...]
    loops: tuple[int, ...]
    count: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidArgumentError("k must be >= 1")
        if not 0 <= self.span <= self.k // 2:
            raise InvalidArgumentError("span outside [0, k//2]")
        if len(self.half_edges) != self.span or len(self.loops) != self.span + 1:
            raise InvalidArgumentError("vector lengths inconsistent with span")
        if any(m < 1 for m in self.half_edges):
            # A zero inside the edge vector would describe a walk that never
            # reaches the far end of its claimed span; such profiles belong
            # to a smaller span and are never stored.
            raise InvalidArgumentError("edge multiplicities must be >= 1 inside the span")
        if any(h < 0 for h in self.loops):
            raise InvalidArgumentError("loop counts must be >= 0")
        if 2 * sum(self.half_edges) + sum(self.loops) != self.k:
            raise InvalidArgumentError("step budget mismatch: 2*sum(edges) + sum(loops) != k")
        if self.count < 1:
            raise InvalidArgumentError("count must be >= 1")


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """Entries of a real tridiagonal matrix, stored as its three diagonals.

    ``sub[i]`` sits one below the diagonal in row ``i+1``, ``sup[i]`` one
    above in row ``i``.  Arrays are frozen after construction; exact
    (object-dtype integer) entries are accepted for integer-arithmetic
    cross-checks and skip the finiteness validation.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub)
        diag = np.asarray(self.diag)
        sup = np.asarray(self.sup)
        if diag.ndim != 1 or sub.ndim != 1 or sup.ndim != 1:
            raise InvalidArgumentError("diagonals must be 1-d arrays")
        n = diag.shape[0]
        if n < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        if sub.shape[0] != n - 1 or sup.shape[0] != n - 1:
            raise InvalidArgumentError("off-diagonals must have length n-1")
        if diag.dtype != object:
            sub = np.asarray(sub, dtype=float)
            sup = np.asarray(sup, dtype=float)
            diag = np.asarray(diag, dtype=float)
            if not (np.all(np.isfinite(sub)) and np.all(np.isfinite(diag)) and np.all(np.isfinite(sup))):
                raise InvalidArgumentError("matrix entries must be finite")
        for name, arr in (("sub", sub), ("diag", diag), ("sup", sup)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.diag.dtype == object

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.sup, 1) + np.diag(self.sub, -1)


_TYPE_TABLE: dict[int, tuple[CircuitType, ...]] = {}
_TYPE_LOCK = threading.Lock()


def _compositions(total: int, parts: int, low: int):
    """Every tuple of ``parts`` integers ``>= low`` summing to ``total``."""
    if parts == 1:
        if total >= low:
            yield (total,)
        return
    for head in range(low, total - low * (parts - 1) + 1):
        for rest in _compositions(total - head, parts - 1, low):
            yield (head,) + rest


def _class_count(k: int, m: tuple[int, ...], loops: tuple[int, ...]) -> int:
    """Closed walks of length ``k`` in the class ``(m, loops)`` with its leftmost
    vertex fixed: the product formula of :func:`enumerate_types`."""
    if not m:
        return 1
    padded = (0, *m, 0)    # m_0 .. m_{s+1}
    count = k
    for j in range(1, len(m)):
        count *= comb(m[j - 1] + m[j] - 1, m[j])
    for h, loop in enumerate(loops):
        count *= comb(loop + padded[h] + padded[h + 1] - 1, loop)
    return count // m[0]


def checked_int(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as a Python int, or :class:`InvalidArgumentError` naming ``name``
    unless it is an integer in ``[least, most]`` (``most`` None: no upper bound).
    A numpy integer counts; a bool, float, string or None is an error."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if most is None:
        if value < least:
            raise InvalidArgumentError(f"{name} must be >= {least}, got {value}")
    elif not least <= value <= most:
        raise InvalidArgumentError(f"{name}={value} outside [{least}, {most}]")
    return int(value)


def checked_real(name: str, value) -> float:
    """``value`` as a float, or :class:`InvalidArgumentError` naming ``name`` unless it is a
    Python or numpy int or float (not a bool) and finite."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    try:
        if isfinite(real := float(value)):
            return real
    except OverflowError:   # an int beyond the float range
        pass
    raise InvalidArgumentError(f"{name} must be finite, got {value!r}")


def enumerate_types(k: int) -> tuple[CircuitType, ...]:
    """Return every closed-walk class for power ``k`` with its multiplicity.

    A class of span ``s >= 1`` is a composition ``m_1 .. m_s`` of an edge
    total ``E`` in ``s .. k//2`` and a weak composition ``l_0 .. l_s`` of the
    ``k - 2E`` loops; span 0 is the one class of ``k`` loops, with count 1.
    With ``V_h = m_h + m_{h+1}`` (``m_0 = m_{s+1} = 0``) the count is

        (k / m_1) * prod_{j=1}^{s-1} C(m_j + m_{j+1} - 1, m_{j+1})
                  * prod_{h=0}^{s} C(l_h + V_h - 1, l_h).

    A walk from vertex 0 is fixed by the order of each vertex's exits.  By
    the BEST theorem on a path, every vertex ``h >= 1`` exits last towards
    0, so it orders its ``m_{h+1}`` right exits and ``l_h`` loops among its
    other ``V_h + l_h - 1``; vertex 0 orders ``l_0`` loops among all its
    ``m_1 + l_0``.  Rotation pairs (walk from 0, exit from ``h``) with (walk
    from ``h``, exit from 0), so with out-degrees ``d_h = V_h + l_h`` the
    walks from ``h`` number ``d_h / d_0`` times those from 0, and
    ``sum_h d_h = k``.

    Parameters
    ----------
    k : int
        Matrix power, ``1 <= k <= K_MAX``.  The cap of 16 is fixed: the
        number of classes and the cost of every trace through them grow
        quickly with ``k`` (6,714 classes at k=16).

    Returns
    -------
    tuple of CircuitType
        Sorted lexicographically by (span, half_edges, loops); two calls
        return identical sequences.
    """
    k = checked_int("k", k, 1, K_MAX)
    with _TYPE_LOCK:
        cached = _TYPE_TABLE.get(k)
    if cached is not None:
        return cached
    keys = [(0, (), (k,))]
    for span in range(1, k // 2 + 1):
        for edges in range(span, k // 2 + 1):
            loop_sets = list(_compositions(k - 2 * edges, span + 1, 0))
            keys.extend((span, m, loops)
                        for m in _compositions(edges, span, 1) for loops in loop_sets)
    types = tuple(
        CircuitType(k=k, span=span, half_edges=m, loops=lp, count=_class_count(k, m, lp))
        for span, m, lp in sorted(keys)
    )
    with _TYPE_LOCK:
        _TYPE_TABLE.setdefault(k, types)
    return types


def _buffer(work: dict, key, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An array of ``shape`` and ``dtype`` over ``work[key]``, a flat buffer
    allocated at the first call for ``key`` and again only when a later call
    needs more.  It starts zeroed, so slots that nothing writes, such as
    padding, hold finite numbers."""
    size = prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.zeros(size, dtype)
    return buf[:size].reshape(shape)


def slot_powers(ab: np.ndarray, diag: np.ndarray, k: int,
                work: dict | None = None) -> tuple[list, list]:
    """The powers of the slot arrays that the classes of power ``k`` read:
    ``ab^0 .. ab^(k//2)`` and ``diag^0 .. diag^k``, indexed by exponent.

    Exponent 0 is None, as no class reads it, and power 1 is the array
    itself, so ``ab`` may be None at k=1.  Each higher power is the one
    before times the base: entries may be negative or zero and exponents
    stay small, so repeated multiplication beats exp/log tricks.  With
    ``work``, a dict the caller keeps, power ``e`` is written into the buffer
    ``(name, e)`` there (:func:`_buffer`), which the next powers built on the
    same ``work`` overwrite.
    """
    pows = ([None, ab], [None, diag])
    for name, powers, top in (("ab", pows[0], k // 2), ("diag", pows[1], k)):
        for e in range(2, top + 1):
            out = None if work is None else _buffer(work, (name, e), powers[1].shape)
            powers.append(np.multiply(powers[-1], powers[1], out=out))
    return pows


def class_product(pows: tuple[list, list], t: CircuitType, width: int,
                  out: np.ndarray | None = None):
    """Windowed entry product of one class at ``width`` consecutive left ends.

    Slot ``s`` of the result is
    ``prod_j ab[s+j]^half_edges[j] * prod_h diag[s+h]^loops[h]``, with edge
    factors first, then the nonzero loop factors, read from the powers of
    :func:`slot_powers`.  Slots run along the last axis, so 1-d diagonals and
    ``(replicas, slots)`` window arrays share this code.  The caller checks
    that every slot lies inside the arrays.  A product of two or more factors
    is written into ``out`` when it is given (of the result's shape), else
    into a new array; a lone factor is returned as a view into the powers,
    which must not be written.
    """
    ab_pows, d_pows = pows
    acc = None
    for j, m in enumerate(t.half_edges):
        f = ab_pows[m][..., j:j + width]
        acc = f if acc is None else np.multiply(acc, f, out=out)
    for h, e in enumerate(t.loops):
        if e:
            f = d_pows[e][..., h:h + width]
            acc = f if acc is None else np.multiply(acc, f, out=out)
    return acc


def trace_power_expansion(matrix: TridiagonalMatrix, k: int, types) -> float:
    """Evaluate trace(M^k) through the walk-class expansion.

    ``types`` must be the full table from ``enumerate_types(k)``.  The site
    and class sums use compensated accumulation.  Exact-entry matrices
    (object dtype) are summed in exact integer arithmetic.
    """
    if tuple(types) != enumerate_types(k):
        raise InvalidArgumentError(f"types must be the full table of enumerate_types({k})")
    n = matrix.n
    if n < k // 2 + 1:
        raise InvalidArgumentError(f"dimension {n} too small for power {k}")
    with np.errstate(over="ignore", invalid="ignore"):
        pows = slot_powers(matrix.sub * matrix.sup, matrix.diag, k)
        totals = [t.count * compensated_sum(class_product(pows, t, n - t.span))
                  for t in types]
    return sum(totals) if matrix.is_exact else fsum(totals)


class _BandedPlan:
    """Half-power banded traces of ``n``-by-``n`` matrices at the powers ``k_list``.

    ``S`` has the diagonal ``diag`` of ``M``, ones above it and the edge
    products ``ab = sub*sup`` below it.  Every closed walk crosses each edge
    as often up as down, so ``trace(S^k) = trace(M^k)`` for every ``k``; like
    the expansion, the kernel then never forms a power of ``sub`` or ``sup``
    alone, which could overflow or underflow when the two are very unequal.

    Reversing a walk from ``c-o`` to ``c`` turns its net ``o`` up-steps into
    down-steps, so ``S^j[c, c-o] = P_o(c) S^j[c-o, c]`` exactly, with
    ``P_o(c) = ab_{c-o+1} ... ab_c`` (``ab_s = S[s, s-1]``).  So with
    ``p_max = ceil(max(k_list)/2)``, for each matrix the plan builds only the
    upper diagonals of ``S^0 .. S^p_max`` in one banded pass.  Stack ``j``
    has shape ``(j+1, n+1)``: row ``o`` holds ``C^j[o, c] = S^j[c-o, c]`` in
    column ``c``, and every other slot is zero (padding column ``n``, and
    ``c < o``).  ``S^{j+1} = S^j S`` gives

        C^{j+1}[o, c] = C^j[o-1, c-1] + d_c C^j[o, c] + ab_{c+1} C^j[o+1, c+1]

    where row 0 reads the reflected ``S^j[c, c-1] = ab_c C^j[1, c]`` as its
    first term.  On the flattened stacks each term is one product (none for
    the ones above the diagonal) and one add at a fixed shift; what a shift
    carries across a row end lands on the padding column, zeroed after the
    step.  ``C^1`` is ``diag`` over shifted ones, so a matrix's diagonal is
    written straight into its row 0.

    With ``p = ceil(k/2)`` and ``q = floor(k/2)``, ``trace(S^k) = sum_{r,c}
    (S^p)_{rc} (S^q)_{cr}``, where the diagonals ``+o`` and ``-o`` add alike:

        trace(S^k) = sum_c C^p[0, c] C^q[0, c]
                     + sum_{o=1..q} sum_c 2 P_o(c) C^q[o, c] C^p[o, c].

    Each matrix fills the weights ``1, 2 P_1, .., 2 P_{q_max}`` (one doubling,
    exact on ``object`` entries too, and ``q_max - 1`` row products); a power
    multiplies the weights by ``C^q`` (the lower diagonals of ``S^q``), then
    by ``C^p``, and sums the product once, compensated.

    Nothing of this layout depends on the matrix.  So the plan allocates its
    arrays, and builds every view of them, once: the products, shifted adds
    and zeroed slots of each step, the weights, and the factors and product
    of each power.  ``d`` and ``ab`` are tiled to as many rows as a step
    multiplies (``p_max`` and ``p_max - 1``), so both products of a step
    take two arrays of one shape, which numpy runs faster than a row
    broadcast.  A matrix then costs the copies of its two rows (``d`` into
    ``C^1`` and its tile, ``ab`` into its tile) and the ufunc calls alone, in
    the same order for every matrix, so a trace has the same bits whichever
    rows or calls it shares the plan with.  ``stacks`` holds the stacks of
    the last matrix evaluated.
    """

    def __init__(self, n: int, k_list, dtype):
        p_max, q_max = (max(k_list) + 1) // 2, max(k_list) // 2
        width = n + 1
        # the tiles: each row holds d_c, or S[c, c-1] = ab_c, in column c,
        # and zero in the other columns
        self._stays = np.zeros((p_max, width), dtype=dtype)
        self._lefts = np.zeros((max(p_max - 1, 1), width), dtype=dtype)
        self.stacks = [np.zeros((j + 1, width), dtype=dtype) for j in range(p_max + 1)]
        self.stacks[0][0, :n] = 1
        c1 = self.stacks[1]
        c1[1, 1:n] = 1                                 # C^1[1, c] = S[c-1, c]
        self._diag = c1[0, :n]                         # C^1[0, c] = d_c, then 0 in column n
        scratch = np.zeros((p_max - 1, width), dtype=dtype)
        self._steps = []
        for j in range(1, p_max):
            stack, new = self.stacks[j], self.stacks[j + 1]
            size, flat = stack.size, new.ravel()
            term = scratch[:j]                                 # ab_c C^j[o, c], o = 1 .. j
            self._steps.append((
                stack, self._stays[:j + 1], new[:j + 1],       # d_c C^j[o, c]
                new[j + 1],                                    # the row the product leaves unwritten
                flat[width + 1:], stack.ravel()[:size - 1],    # one row down, one column right
                stack[1:], self._lefts[:j], term,              # rows 1 .. j, the off-diagonals
                flat[:size - width - 1], term.ravel()[1:],     # one row up, one column left
                new[0], term[0],                               # row 0's reflected term
                new[:, n],                                     # column n-1 has no right neighbour
            ))
        weights = np.zeros((q_max + 1, n), dtype=dtype)
        weights[0] = 1
        edges = self._lefts[0, :n]                     # 0, then ab_c in column c
        self._weights = [(np.add, edges, edges, weights[1])] if q_max else []
        self._weights += [(np.multiply, weights[o - 1, :n - 1], edges[1:], weights[o, 1:])
                          for o in range(2, q_max + 1)]
        prod = np.zeros((q_max + 1) * n, dtype=dtype)
        self._factors = []
        for k in k_list:
            p, q = (k + 1) // 2, k // 2
            part = prod[:(q + 1) * n]
            self._factors.append((weights[:q + 1], self.stacks[q][:, :n],
                                  self.stacks[p][:q + 1, :n], part.reshape(q + 1, n), part))

    def traces(self, ab: np.ndarray, diag: np.ndarray) -> list[list]:
        """``trace(M^k)`` of the matrix in each row of ``ab`` and ``diag``, at each
        power of the plan's ``k_list``."""
        multiply, add = np.multiply, np.add
        stays, lefts = self._stays[:, :-1], self._lefts[:, 1:-1]
        out = []
        with np.errstate(over="ignore", invalid="ignore"):  # the trace sum reports it
            for a, d in zip(ab, diag):
                self._diag[...] = d
                stays[...] = d
                lefts[...] = a
                for (stack, stay, stayed, zero_end, down, down_src, off_diag, left_ab, term,
                     left, left_src, top, reflected, pad_col) in self._steps:
                    multiply(stack, stay, out=stayed)
                    zero_end.fill(0)
                    add(down, down_src, out=down)
                    multiply(off_diag, left_ab, out=term)
                    add(left, left_src, out=left)
                    add(top, reflected, out=top)
                    pad_col.fill(0)
                for op, x, y, weight in self._weights:
                    op(x, y, out=weight)
                traces = []
                for weights, lower, upper, prod2d, prod in self._factors:
                    multiply(weights, lower, out=prod2d)
                    multiply(prod2d, upper, out=prod2d)
                    traces.append(compensated_sum(prod))
                out.append(traces)
        return out


def trace_power_direct(matrix: TridiagonalMatrix, k: int) -> float:
    """Evaluate trace(M^k) by repeated banded multiplication.

    The j-th power is one zero-padded band array whose row ``w+1+o``,
    ``w = min(k//2, n-1)``, holds the diagonal ``(M^j)[r, r+o]`` by row ``r``
    for ``|o| <= min(j, k-j, n-1)``, the only ones trace(M^k) reads.  A step
    sums three row-shifted products, ``(M^j)[r, r+s] * M[r+s, r+o]`` for
    ``s = o-1, o, o+1``, so the cost is O(n k^2) and no dense n-by-n array
    is built.  For small matrices (n <= DENSE_CHECK_MAX, float entries)
    a dense matrix power is computed as a second cross-check.  This is the
    reference the other routes are checked against, so it shares no code
    with the Monte Carlo kernel (:class:`_BandedPlan`).
    """
    k = checked_int("k", k, 1)
    n, exact = matrix.n, matrix.is_exact
    w, dtype = min(k // 2, n - 1), object if exact else float
    # Row w+1+s of each factor view holds, by row r, the entry of M that the
    # diagonal s of a power meets, zero outside M: up[w+1+s][r] = M[r+s, r+s+1].
    up, dg, dn = (np.full(n + 2 * w + 2, 0, dtype=dtype) for _ in range(3))
    up[w + 1:w + n] = matrix.sup
    dg[w + 1:w + n + 1] = matrix.diag
    dn[w + 2:w + n + 1] = matrix.sub
    up, dg, dn = (np.lib.stride_tricks.sliding_window_view(q, n) for q in (up, dg, dn))
    power, nxt = (np.full((2 * w + 3, n), 0, dtype=dtype) for _ in range(2))
    power[w:w + 3] = dn[w + 1], dg[w + 1], up[w + 1]   # M itself: zero steps at k = 1
    term = np.empty((2 * w + 1, n), dtype=dtype)
    for j in range(2, k + 1):
        # the widths rise, hold and then only fall, so the rows a step reads
        # beyond the last power's width are still zero
        lo, hi = w + 1 - min(j, k - j, n - 1), w + 2 + min(j, k - j, n - 1)
        out, t = nxt[lo:hi], term[:hi - lo]
        np.multiply(power[lo - 1:hi - 1], up[lo - 1:hi - 1], out=out)
        np.multiply(power[lo:hi], dg[lo:hi], out=t)
        np.add(out, t, out=out)
        np.multiply(power[lo + 1:hi + 1], dn[lo + 1:hi + 1], out=t)
        np.add(out, t, out=out)
        power, nxt = nxt, power

    total = compensated_sum(power[w + 1])
    if exact:
        return total
    total = float(total)
    if 1 < k and n <= DENSE_CHECK_MAX:
        dense = np.trace(np.linalg.matrix_power(matrix.to_dense(), k))
        if abs(dense - total) > 1e-8 * (1.0 + abs(dense)):
            raise TriTraceError(
                f"banded/dense trace mismatch: {total!r} vs {dense!r}")  # pragma: no cover
    return total


class RowTracer:
    """Traces of the powers ``k_list`` of ``n``-by-``n`` matrices given as rows.

    Calling it with the ``(rows, n-1)`` off-diagonals ``sub`` and ``sup``
    and the ``(rows, n)`` diagonals ``diag`` gives the ``(rows, len(k_list))``
    float traces, each power by its cheaper route.  Each value is bitwise the
    one a lone row would give.  The tracer forms the edge products
    ``ab = sub*sup`` into a ``(rows, n-1)`` buffer of its own, and only when
    some power is above 1: k=1's one class is ``diag`` itself, so a run of
    k=1 alone forms no product that could overflow.

    Powers of :data:`BANDED_MIN_K` and above go row by row through one
    :class:`_BandedPlan`, which builds the upper diagonals of the half powers
    only and weights them by the edge products of the reversed walks.  Lower
    powers use the class expansion over all rows at once, on flat copies of
    ``ab`` and ``diag`` that give each row ``n`` slots (``ab`` has one slot of
    padding) and end in a few slots of padding: slot ``c`` of row ``r`` is
    entry ``r*n + c``, so a class product at every left end of every row is
    one :func:`class_product` of 1-d slices, and row ``r``'s sum reads its
    first ``n - span`` slots.  A product that runs past a row's end lands on
    slots no sum reads.  (With k=1 alone, ``diag`` is read in place and
    nothing is copied.)  The tracer keeps the plan, whose arrays are
    allocated once with it, and its own workspace (the edge products, the
    flat copies, their powers and the class product, :func:`_buffer`), so
    every call after the first reuses their memory.
    """

    def __init__(self, n: int, k_list):
        self.k_list = [checked_int("k", k, 1, K_MAX) for k in k_list]
        self._high = [j for j, k in enumerate(self.k_list) if k >= BANDED_MIN_K]
        self._low = [j for j, k in enumerate(self.k_list) if k < BANDED_MIN_K]
        self._plan = None
        if self._high:
            self._plan = _BandedPlan(n, [self.k_list[j] for j in self._high], float)
        # slots past the last row for the widest span a class product reads
        self._pad = max((self.k_list[j] // 2 for j in self._low), default=0)
        self._work = {}

    def __call__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
        k_list, work = self.k_list, self._work
        rows, n = diag.shape
        out = np.empty((rows, len(k_list)))
        ab = None
        if max(k_list, default=1) > 1:
            # exact (object) entries multiply exactly, then round to float once
            ab = np.multiply(sub, sup, out=_buffer(work, "edges", (rows, n - 1)),
                             casting="unsafe")
        if self._high:
            out[:, self._high] = self._plan.traces(ab, diag)
        if not self._low:
            return out
        size = rows * n
        flat_ab, flat_d, product = None, diag.reshape(size), None
        if self._pad:   # classes that read ab, past a row's end, and multiply
            flat_ab = _buffer(work, ("ab", 1), (size + self._pad,))
            flat_ab[:size].reshape(rows, n)[:, :n - 1] = ab
            flat_d = _buffer(work, ("diag", 1), (size + self._pad,))
            flat_d[:size].reshape(rows, n)[...] = diag
            product = _buffer(work, "product", (size,))
        pows = slot_powers(flat_ab, flat_d, max(k_list[j] for j in self._low), work)
        with np.errstate(over="ignore", invalid="ignore"):   # the row sums report it
            for j in self._low:
                totals = []
                for t in enumerate_types(k_list[j]):
                    slots = class_product(pows, t, size, product).reshape(rows, n)
                    totals.append([t.count * s for s in
                                   compensated_sum_rows(slots[:, :max(n - t.span, 0)])])
                out[:, j] = [fsum(row) for row in zip(*totals)]
        return out


def traces_for_k_list(matrix: TridiagonalMatrix, k_list) -> np.ndarray:
    """Traces of several powers of one matrix: a :class:`RowTracer` on one row."""
    return RowTracer(matrix.n, k_list)(matrix.sub[None, :], matrix.diag[None, :],
                                       matrix.sup[None, :])[0]


def types_as_json_lines(types) -> str:
    """Serialize a type table, one JSON record per class."""
    lines = [
        json.dumps({"k": t.k, "l": t.span, "m": list(t.half_edges),
                    "n": list(t.loops), "count": t.count})
        for t in types
    ]
    return "\n".join(lines) + "\n"
