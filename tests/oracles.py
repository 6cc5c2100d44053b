"""Spelled-out reference kernels: the oracles the library kernels must match.

The library runs one vectorised implementation of each kernel.  These are
the step-by-step forms of the same algorithms — the paper's bottom-up
merge passes and per-digit radix scatters, a two-key lexsort triple
coalesce, a per-row Gustavson loop over a sparse accumulator, per-row
and per-owner gathers, a global sort-by-cell partitioner — kept here so
``tests/ops/test_kernel_oracles.py`` can compare the library's output
against them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.monoid import Monoid, PLUS_MONOID
from repro.algebra.semiring import PLUS_TIMES, Semiring
from repro.ops.mask import mask_matrix
from repro.sparse import SPA, CSRMatrix, DCSRMatrix, SparseVector
from repro.sparse.sort import merge_two

__all__ = [
    "merge_sort_reference",
    "radix_sort_reference",
    "coalesce_reference",
    "ranges_reference",
    "dcsr_extract_rows_reference",
    "group_by_owner_reference",
    "from_pairs_reference",
    "spmspv_spa_reference",
    "mxm_gustavson_reference",
    "partition_reference",
]


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------


def merge_sort_reference(keys: np.ndarray) -> np.ndarray:
    """Bottom-up merge sort, pass by pass; returns a new sorted array.

    Runs double in width each pass; each pass merges adjacent run pairs
    with :func:`merge_two`.  log2(n) passes — the pass count the simulated
    parallel-sort cost model charges.
    """
    keys = np.asarray(keys)
    n = keys.size
    if n <= 1:
        return keys.copy()
    cur = keys.copy()
    width = 1
    while width < n:
        nxt = np.empty_like(cur)
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            nxt[lo:hi] = merge_two(cur[lo:mid], cur[mid:hi])
        cur = nxt
        width *= 2
    return cur


def radix_sort_reference(keys: np.ndarray, key_bits: int | None = None) -> np.ndarray:
    """LSD radix sort with per-digit counting passes written out.

    Counting sort per 8-bit digit: histogram with ``bincount``, exclusive
    prefix sum for bucket offsets, stable per-bucket scatter.
    """
    keys = np.asarray(keys)
    if keys.size and keys.min() < 0:
        raise ValueError("radix_sort requires non-negative keys")
    if keys.size <= 1:
        return keys.copy()
    if key_bits is None:
        key_bits = max(int(keys.max()).bit_length(), 1)
    cur = keys.astype(np.int64, copy=True)
    out = np.empty_like(cur)
    for p in range((key_bits + 7) // 8):
        digits = (cur >> (8 * p)) & 0xFF
        counts = np.bincount(digits, minlength=256)
        offsets = np.zeros(256, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        # flatnonzero yields each bucket's members in ascending original
        # order, which keeps every pass stable
        for b in np.flatnonzero(counts):
            members = np.flatnonzero(digits == b)
            out[offsets[b] : offsets[b] + members.size] = cur[members]
        cur, out = out, cur
    return cur.astype(keys.dtype, copy=True)


def coalesce_reference(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    dup: Monoid = PLUS_MONOID,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triple coalesce by a two-key ``np.lexsort``: sort by ``(row, col)``
    keeping input order among duplicates, then reduce each duplicate run
    with ``dup.reduceat``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values)
    if rows.size == 0:
        return rows, cols, values
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    is_first = np.empty(rows.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if is_first.all():
        return rows, cols, values
    starts = np.flatnonzero(is_first)
    merged = dup.reduceat(values, starts)
    return rows[starts], cols[starts], np.asarray(merged, dtype=values.dtype)


# ---------------------------------------------------------------------------
# gathers and group-bys
# ---------------------------------------------------------------------------


def ranges_reference(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i]+lens[i])`` ranges, built as the
    cumulative sum of per-element deltas."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_ends = np.cumsum(lens)
    out = np.ones(total, dtype=np.int64)
    nz = np.flatnonzero(lens)
    # flat positions where each non-empty segment begins
    firsts = seg_ends[nz] - lens[nz]
    out[firsts[0]] = starts[nz[0]]
    out[firsts[1:]] = starts[nz[1:]] - (starts[nz[:-1]] + lens[nz[:-1]] - 1)
    return np.cumsum(out)


def dcsr_extract_rows_reference(d: DCSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """DCSR row gather walking the rows one :meth:`DCSRMatrix.row` lookup
    at a time."""
    rows = np.asarray(rows, dtype=np.int64)
    out_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for k in range(rows.size):
        rcols, rvals = d.row(int(rows[k]))
        out_ptr[k + 1] = out_ptr[k] + rcols.size
        cols.append(rcols)
        vals.append(rvals)
    return CSRMatrix(
        rows.size,
        d.ncols,
        out_ptr,
        np.concatenate(cols) if cols else np.empty(0, np.int64),
        np.concatenate(vals) if vals else np.empty(0, d.values.dtype),
    )


def group_by_owner_reference(owners: np.ndarray, *payloads: np.ndarray):
    """Per-owner boolean-mask loop: each owner's elements in original order.

    Returns ``(unique_owners, [per-owner payload tuples])``.
    """
    owners = np.asarray(owners, dtype=np.int64)
    uniq = np.unique(owners)
    groups = [tuple(np.asarray(p)[owners == o] for p in payloads) for o in uniq]
    return uniq, groups


def from_pairs_reference(
    capacity: int, indices, values, dup: Monoid = PLUS_MONOID
) -> SparseVector:
    """``GrB_Vector_build``: plain stable sort, duplicates folded with the
    monoid's general segmented reduction."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values)
    order = np.argsort(indices, kind="stable")
    indices, values = indices[order], values[order]
    if indices.size:
        is_first = np.empty(indices.size, dtype=bool)
        is_first[0] = True
        is_first[1:] = indices[1:] != indices[:-1]
        if not is_first.all():
            starts = np.flatnonzero(is_first)
            values = np.asarray(dup.reduceat(values, starts), dtype=values.dtype)
            indices = indices[starts]
    return SparseVector(capacity, indices, values)


# ---------------------------------------------------------------------------
# local kernels
# ---------------------------------------------------------------------------


def spmspv_spa_reference(
    a: CSRMatrix,
    x: SparseVector,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
    *,
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> SparseVector:
    """Listing 7 as written: gather the selected rows, merge the products
    through a SPA, sort its nonzero indices, build the output vector."""
    sub = a.extract_rows(x.indices)
    products = np.asarray(
        semiring.mult(np.repeat(x.values, np.diff(sub.rowptr)), sub.values)
    )
    cols = sub.colidx
    if mask is not None:
        allowed = np.asarray(mask, dtype=bool)
        keep = ~allowed[cols] if complement else allowed[cols]
        cols, products = cols[keep], products[keep]
    spa = SPA(a.ncols, dtype=products.dtype)
    spa.scatter(cols, products, monoid=semiring.add)
    nz = spa.nzinds
    inds = radix_sort_reference(nz) if sort == "radix" else merge_sort_reference(nz)
    return SparseVector(a.ncols, inds, spa.values[inds])


def mxm_gustavson_reference(
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: CSRMatrix | None = None,
    complement: bool = False,
) -> CSRMatrix:
    """The per-row Gustavson loop with a reused SPA.

    For each output row ``i``: scatter the scaled B-rows selected by
    ``A[i, :]`` into the SPA, gather sorted, reset.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    spa = SPA(b.ncols, dtype=np.result_type(a.values, b.values))
    rowptr = np.zeros(a.nrows + 1, dtype=np.int64)
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for i in range(a.nrows):
        acols, avals = a.row(i)
        if acols.size:
            sub = b.extract_rows(acols)
            reps = np.diff(sub.rowptr)
            scaled = np.asarray(semiring.mult(np.repeat(avals, reps), sub.values))
            spa.scatter(sub.colidx, scaled, monoid=semiring.add)
        row_vec = spa.gather(sort=True)
        out_cols.append(row_vec.indices)
        out_vals.append(row_vec.values)
        rowptr[i + 1] = rowptr[i] + row_vec.nnz
        spa.reset()
    c = CSRMatrix(
        a.nrows,
        b.ncols,
        rowptr,
        np.concatenate(out_cols) if out_cols else np.empty(0, np.int64),
        np.concatenate(out_vals) if out_vals else np.empty(0),
    )
    if mask is not None:
        c = mask_matrix(c, mask, complement=complement)
    return c


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------


def partition_reference(a: CSRMatrix, layout) -> list[CSRMatrix]:
    """2-D block partition by one global stable sort of every nonzero by
    its owning cell, each cell rebuilt through ``CSRMatrix.from_triples``
    (the coalescing COO path)."""
    pr, pc = layout.grid_rows, layout.grid_cols
    rbounds = layout.row_blocks.bounds
    cbounds = layout.col_blocks.bounds
    rows = a.row_indices()
    cols = a.colidx
    vals = a.values
    row_owner = layout.row_blocks.owners(rows) if rows.size else rows
    col_owner = layout.col_blocks.owners(cols) if cols.size else cols
    cell = row_owner * pc + col_owner
    order = np.argsort(cell, kind="stable")
    rows, cols, vals, cell = rows[order], cols[order], vals[order], cell[order]
    cuts = np.searchsorted(cell, np.arange(pr * pc + 1))
    blocks: list[CSRMatrix] = []
    for i in range(pr):
        rlo, rhi = rbounds[i], rbounds[i + 1]
        for j in range(pc):
            clo, chi = cbounds[j], cbounds[j + 1]
            s, e = cuts[i * pc + j], cuts[i * pc + j + 1]
            blocks.append(
                CSRMatrix.from_triples(
                    int(rhi - rlo),
                    int(chi - clo),
                    rows[s:e] - rlo,
                    cols[s:e] - clo,
                    vals[s:e],
                )
            )
    return blocks
