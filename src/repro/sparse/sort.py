"""From-scratch sorting kernels used by the SpMSpV output stage.

Paper §III-D: "we use parallel merge sort available in Chapel.  Since SpMSpV
requires sorting of integer indices, a less expensive integer sorting
algorithm (e.g., radix sort) is expected to reduce the sorting cost down".

Two algorithms are provided, both executed through numpy's C loops:
merge sort as one stable sort, radix sort as per-8-bit-digit stable
``argsort`` passes.  Sorting bare integer keys has a unique answer, so
both return the same array; ``tests/ops/test_kernel_oracles.py`` pins them
against spelled-out Python oracles of the paper's algorithms.

Two more primitives serve construction rather than SpMSpV:
:func:`sorted_unique` (the dedup behind the random generators) and
:func:`coo_order` (the row-major triple sort behind ``coalesce`` and
SpGEMM).  Both replace a slower numpy call — the hash-based plain
``np.unique`` and the two-pass ``np.lexsort`` — with one sort, and both
return exactly what the call they replace returns.

The *simulated* cost of sorting is charged by
:func:`repro.runtime.tasks.sort_time` from the pass structure of the
algorithms (log2(n) merge passes, ``ceil(key_bits / 8)`` radix passes);
the executing implementation never changes a simulated number.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "merge_sort",
    "radix_sort",
    "merge_two",
    "merge_sort_cost",
    "radix_sort_cost",
    "stable_argsort_bounded",
    "sorted_unique",
    "coo_order",
]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of integer ``keys`` — ``np.unique(keys)``.

    Sort, then keep each entry that differs from its left neighbour.
    Sorted distinct integers are unique, so this equals ``np.unique`` by
    construction; it exists because numpy 2.x's plain ``np.unique`` takes
    a hash-table path that is ~60x slower than one sort on millions of
    int64 keys.
    """
    keys = np.sort(np.asarray(keys).ravel())
    if keys.size <= 1:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def coo_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stable permutation sorting coordinates row-major by ``(row, col)``.

    One stable argsort of the combined key ``(row - rmin)·span + (col -
    cmin)`` with ``span = cmax - cmin + 1``: the key orders pairs exactly
    as ``(row, col)`` does and both sorts are stable, so this is the
    permutation ``np.lexsort((cols, rows))`` returns, at one sort instead
    of two.  ``np.lexsort`` remains only for coordinates whose combined
    key would not fit in int64.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.intp)
    rmin, rmax = int(rows.min()), int(rows.max())
    cmin, cmax = int(cols.min()), int(cols.max())
    span = cmax - cmin + 1
    bound = (rmax - rmin + 1) * span
    if bound > (1 << 63):
        return np.lexsort((cols, rows))
    key = rows - rmin
    key *= span
    key += cols - cmin if cmin else cols
    return stable_argsort_bounded(key, bound)


def stable_argsort_bounded(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys
    known to be ``< bound``.

    numpy's stable integer argsort is an LSD radix sort with one pass per
    key byte, so sorting int64 keys that all fit in one or two bytes wastes
    6-7 passes.  Casting to the narrowest unsigned dtype that holds
    ``bound - 1`` is order-preserving and injective, hence the stable
    permutation is *identical* — the differential suite pins this.
    """
    if keys.size >= 64 and 0 < bound <= (1 << 32):
        if bound <= (1 << 8):
            return np.argsort(keys.astype(np.uint8), kind="stable")
        if bound <= (1 << 16):
            return np.argsort(keys.astype(np.uint16), kind="stable")
        return np.argsort(keys.astype(np.uint32), kind="stable")
    return np.argsort(keys, kind="stable")


def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two individually sorted arrays into one sorted array.

    Vectorised merge: the final position of ``a[i]`` is ``i`` plus the
    number of elements of ``b`` strictly smaller than ``a[i]`` (ties broken
    toward ``a`` for stability), computed with one ``searchsorted`` per side.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    pos_a = np.arange(a.size) + np.searchsorted(b, a, side="left")
    pos_b = np.arange(b.size) + np.searchsorted(a, b, side="right")
    out[pos_a] = a
    out[pos_b] = b
    return out


def merge_sort(keys: np.ndarray) -> np.ndarray:
    """Merge sort of integer keys; returns a new sorted array.

    One stable C sort: sorted bare keys are unique, so the result equals
    that of the bottom-up merge passes the cost model charges.
    """
    keys = np.asarray(keys)
    if keys.size <= 1:
        return keys.copy()
    return np.sort(keys, kind="stable")


def radix_sort(keys: np.ndarray, key_bits: int | None = None) -> np.ndarray:
    """LSD radix sort of non-negative integer keys; returns a sorted copy.

    ``ceil(key_bits / 8)`` stable passes over 8-bit digits, where
    ``key_bits`` defaults to the bit width of the maximum key — sorting
    n-bounded graph indices takes 3-4 passes instead of merge sort's
    log2(nnz) passes, which is the paper's argument for radix sort.  Each
    pass's counting scatter runs as one stable ``argsort`` of the digit
    array; stability per pass is what makes LSD radix correct.
    """
    keys = np.asarray(keys)
    if keys.size and keys.min() < 0:
        raise ValueError("radix_sort requires non-negative keys")
    if keys.size <= 1:
        return keys.copy()
    if key_bits is None:
        mx = int(keys.max())
        key_bits = max(int(mx).bit_length(), 1)
    cur = keys.astype(np.int64, copy=True)
    n_passes = (key_bits + 7) // 8
    for p in range(n_passes):
        digits = ((cur >> (8 * p)) & 0xFF).astype(np.uint8)
        cur = cur[np.argsort(digits, kind="stable")]
    return cur.astype(keys.dtype, copy=True)


def merge_sort_cost(n: int) -> float:
    """Abstract work units for merge-sorting ``n`` keys (n·log2 n compares)."""
    if n <= 1:
        return float(n)
    return float(n) * max(np.log2(n), 1.0)


def radix_sort_cost(n: int, key_bits: int = 32) -> float:
    """Abstract work units for radix-sorting ``n`` keys (n per digit pass)."""
    passes = max((key_bits + 7) // 8, 1)
    return float(n) * passes
