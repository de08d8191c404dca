"""Compensated summation.

Site sums run over up to ~1e6 terms and the oracle tolerances sit at 1e-9
relative, so plain left-to-right accumulation is not good enough.  Float
arrays are reduced blockwise (numpy pairwise summation inside each block)
and the block sums are combined with ``math.fsum``, which rounds the exact
result once.  Exact (object/integer) arrays fall back to Python's exact
integer arithmetic.  A float sum whose result is not finite (it overflowed,
or its terms held an infinity or NaN) raises :class:`NumericOverflowError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericOverflowError

_BLOCK = 256


def fsum(values) -> float:
    """``math.fsum`` that raises :class:`NumericOverflowError` unless the sum is finite."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise NumericOverflowError(f"compensated sum is not finite: {exc}") from exc
    if not math.isfinite(total):
        raise NumericOverflowError(f"compensated sum is not finite: {total}")
    return total


def compensated_sum(values) -> float:
    """Sum a 1-d array with compensated accumulation."""
    arr = np.asarray(values)
    if arr.dtype == object:
        return sum(arr.tolist())
    if arr.size == 0:
        return 0.0
    if arr.size <= _BLOCK:
        return fsum(arr.tolist())
    cuts = np.arange(0, arr.size, _BLOCK)
    return fsum(np.add.reduceat(arr, cuts).tolist())


def compensated_sum_rows(values) -> list[float]:
    """:func:`compensated_sum` of each row of a 2-d float array.

    The block sums of all rows come from one ``np.add.reduceat`` along the
    rows, which sums each block exactly as it sums a lone row, so every row
    gets the bits its own 1-d sum would.  (:func:`compensated_sum` keeps its
    own 1-d body: it runs once per class in the oracle routes, where the
    2-d form of one row costs 1.1-1.3 times as long, 4.7 against 3.6 us at
    1,000 entries on 2 vCPU.)
    """
    arr = np.asarray(values)
    if arr.shape[1] > _BLOCK:
        arr = np.add.reduceat(arr, np.arange(0, arr.shape[1], _BLOCK), axis=1)
    return [fsum(row) for row in arr.tolist()]
