import itertools
import math

import numpy as np
from hypothesis import HealthCheck, settings

from tritrace.accumulate import compensated_sum
from tritrace.circuits import TridiagonalMatrix, checked_int, enumerate_types, trace_power_expansion
from tritrace.ensembles import EntryLaw, sample_window_arrays, trial_seed_sequence
from tritrace.errors import InvalidArgumentError
from tritrace.stats import _summand_block

settings.register_profile(
    "tritrace",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tritrace")


# ---------------------------------------------------------------------------
# Independent oracles shared by several test modules.  These deliberately use
# the brute-force walk classifier and plain Python arithmetic so they share no
# evaluation path with the vectorized kernels they check.

BRUTEFORCE_K_MAX = 12


def count_circuits_bruteforce(k: int) -> dict[tuple, int]:
    """Classify every closed step sequence of length k, one walk at a time.

    Independent oracle for :func:`enumerate_types`: depth-first enumeration
    of all step sequences in {-1, 0, +1}^k that return to the start, each
    shifted so its minimum vertex is 0 and binned by
    (span, half_edges, loops).
    """
    k = checked_int("k", k, 1, BRUTEFORCE_K_MAX)
    out: dict[tuple, int] = {}
    path = [0] * (k + 1)

    def descend(t: int) -> None:
        pos = path[t]
        left = k - t
        if left == 0:
            if pos == 0:
                key = _classify_path(path)
                out[key] = out.get(key, 0) + 1
            return
        for step in (-1, 0, 1):
            if abs(pos + step) <= left - 1:
                path[t + 1] = pos + step
                descend(t + 1)

    descend(0)
    return out


def _classify_path(path: list[int]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    lo = min(path)
    span = max(path) - lo
    half = [0] * span
    loops = [0] * (span + 1)
    for t in range(len(path) - 1):
        u = path[t] - lo
        v = path[t + 1] - lo
        if u == v:
            loops[u] += 1
        else:
            half[min(u, v)] += 1
    return span, tuple(c // 2 for c in half), tuple(loops)


def naive_summand(types, a_by_index, d_by_index, b_by_index, i, k):
    """X_{k,i} from entry mappings index -> value, by direct product loops."""
    total = 0.0
    for (span, half_edges, loops), count in types.items():
        term = float(count)
        for j, m in enumerate(half_edges):
            term *= (a_by_index[i + j] * b_by_index[i + j]) ** m
        for j, e in enumerate(loops):
            term *= d_by_index[i + j] ** e
        total += term
    return total


def site_summand(a, d, b, first_index, i, k):
    """The per-site summand ``X_{k,i}`` of one window's 1-d slot arrays from
    site ``first_index`` (``a[t] = a_{f+t-1}``, ``d[t] = d_{f+t}``,
    ``b[t] = b_{f+t}``), through the batched kernel ``_summand_block`` at one
    replica and one site: the window sliced at site ``i``."""
    s = i - first_index
    return float(_summand_block(a[None, s:], d[None, s:], b[None, s:], 1, k)[0, 0])


def exhaustive_dk(k, m_k, d_atoms, ab_value=1.0):
    """Exact limiting variance for fixed off-diagonals and atomic diagonal law.

    Enumerates the joint support of the diagonal entries feeding the summands
    at sites 2 .. 2+m_k and accumulates the exact variance plus twice the lag
    covariances.  Only valid when a_i b_i == ab_value deterministically.
    """
    types = count_circuits_bruteforce(k)
    span_max = k // 2
    n_sites = m_k + 1
    d_indices = list(range(2, 2 + m_k + span_max + 1))
    ab = {i: ab_value for i in range(2, 3 + m_k + span_max)}
    one = {i: 1.0 for i in ab}

    mean = [0.0] * n_sites
    cross = [[0.0] * n_sites for _ in range(n_sites)]
    for combo in itertools.product(d_atoms, repeat=len(d_indices)):
        prob = 1.0
        d_map = {}
        for idx, (value, p) in zip(d_indices, combo):
            prob *= p
            d_map[idx] = value
        xs = [naive_summand(types, one, d_map, ab, 2 + j, k) for j in range(n_sites)]
        for u in range(n_sites):
            mean[u] += prob * xs[u]
            for v in range(n_sites):
                cross[u][v] += prob * xs[u] * xs[v]
    cov = [[cross[u][v] - mean[u] * mean[v] for v in range(n_sites)] for u in range(n_sites)]
    return cov[0][0] + 2.0 * sum(cov[0][j] for j in range(1, n_sites))


def central_trinomial(k):
    """Closed walks of length k from a fixed vertex with steps in {-1, 0, 1}."""
    return sum(math.comb(k, 2 * j) * math.comb(2 * j, j) for j in range(k // 2 + 1))


def _bump(items, key):
    d = dict(items)
    d[key] = d.get(key, 0) + 1
    return tuple(sorted(d.items()))


def _classify_profile(edges, loops):
    """Shift an edge/loop profile so its leftmost visited vertex is 0."""
    verts = {0}
    for e, _ in edges:
        verts.add(e)
        verts.add(e - 1)
    for v, _ in loops:
        verts.add(v)
    lo, hi = min(verts), max(verts)
    span = hi - lo
    cross = dict(edges)
    half = []
    for j in range(span):
        c = cross.get(lo + 1 + j, 0)
        assert c > 0 and c % 2 == 0, "inconsistent walk profile"
        half.append(c // 2)
    lp = dict(loops)
    return span, tuple(half), tuple(lp.get(lo + h, 0) for h in range(span + 1))


def walk_class_counts(k):
    """Count closed walks of length k from a fixed start, per translation class.

    Step-by-step oracle for the closed-form table of ``enumerate_types``:
    walk prefixes that share (position, edge-traversal profile, loop profile)
    are interchangeable for every possible continuation, so they are merged
    and counted together; the result is an exact enumeration of all 3^k step
    sequences without visiting them one by one.
    """
    states = {(0, (), ()): 1}
    for step in range(k):
        budget = k - step - 1  # steps left after taking the next one
        nxt = {}
        for (pos, edges, loops), ways in states.items():
            if abs(pos) <= budget:
                key = (pos, edges, _bump(loops, pos))
                nxt[key] = nxt.get(key, 0) + ways
            if abs(pos + 1) <= budget:
                key = (pos + 1, _bump(edges, pos + 1), loops)
                nxt[key] = nxt.get(key, 0) + ways
            if abs(pos - 1) <= budget:
                key = (pos - 1, _bump(edges, pos), loops)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    out = {}
    for (pos, edges, loops), ways in states.items():
        assert pos == 0, "open walk survived the budget pruning"
        key = _classify_profile(edges, loops)
        out[key] = out.get(key, 0) + ways
    return out


def log_mgf_quadrature(law, t, nodes=96):
    """log E exp(t X) by summing over the atoms of a discrete law, or by
    Gauss-Legendre quadrature of a uniform law's density: an oracle for the
    closed forms of ``EntryLaw.log_mgf``."""
    atoms = law.atoms
    if atoms is not None:
        shift = max(t * v for v, _ in atoms)
        return shift + math.log(sum(p * math.exp(t * v - shift) for v, p in atoms))
    assert law.kind == "uniform", f"no density known for law {law.kind!r}"
    lo, hi = law.support
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    vals = t * x
    shift = float(np.max(vals))
    return shift + math.log(float(np.sum(w / (hi - lo) * np.exp(vals - shift))))


# ---------------------------------------------------------------------------
# Boundary terms: the trace differs from the sum of site summands by an O(1)
# right-boundary correction; these bound it and sample it.


def entry_bounds(spec) -> tuple[float, float]:
    """(max |a_i b_i|, max |d_i|) over the support; requires a bounded spec."""
    if not spec.bounded:
        raise InvalidArgumentError("entry bounds require a bounded spec")

    def absmax(law: EntryLaw) -> float:
        lo, hi = law.support
        return max(abs(lo), abs(hi))

    if spec.model == "anderson":
        return 1.0, absmax(spec.d_law)
    if spec.model == "birth_death_kernel":
        return 1.0, 1.0
    am = absmax(spec.a_law)
    bm = absmax(spec.b_law) if spec.b_law is not None else am
    return am * bm, (am + bm if spec.model == "birth_death_q" else absmax(spec.d_law))


def boundary_bound(spec, k: int) -> float:
    """Deterministic bound on |sum of site summands - trace|, uniform in n."""
    ab_max, d_max = entry_bounds(spec)
    total = 0.0
    for t in enumerate_types(k):
        if t.span == 0:
            continue
        total += t.count * t.span * ab_max ** sum(t.half_edges) * d_max ** sum(t.loops)
    return total


def boundary_gap_samples(spec, n: int, k: int, trials: int, master_seed: int) -> np.ndarray:
    """Signed gaps ``sum_i X_{k,i} - trace(Q^k)`` over seeded realizations.

    Each trial samples one window from site 1, long enough to cover every
    summand site ``1 .. n``, and takes the matrix from its first n sites, so
    both sides use the same realization of the entry sequences.
    """
    n = checked_int("n", n, 1)
    trials = checked_int("trials", trials, 0)
    if spec.model == "birth_death_kernel":
        raise InvalidArgumentError(
            "model has right-boundary cells; window truncation does not reproduce it")
    types = enumerate_types(k)
    gaps = np.empty(trials)
    for t in range(trials):
        seed = trial_seed_sequence(master_seed, t)
        a, d, b = sample_window_arrays(spec, 1, n + k // 2, 1, seed)
        matrix = TridiagonalMatrix(sub=a[0, 1:n], diag=d[0, :n], sup=b[0, :n - 1])
        x = _summand_block(a, d, b, n, k)[0]
        gaps[t] = compensated_sum(x) - trace_power_expansion(matrix, k, types)
    return gaps
