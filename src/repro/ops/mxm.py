"""MXM / SpGEMM — sparse matrix × sparse matrix over a semiring.

Part of the "approximately ten distinct functions" of the GraphBLAS C API
(paper §III) and the paper's stated future work ("finishing a complete
GraphBLAS-compliant library").  Two classic algorithms:

* :func:`mxm` — **ESC** (expand, sort, compress): materialise every
  partial product ``A[i,k] ⊗ B[k,j]`` as a triple, then coalesce with the
  additive monoid.  Fully vectorised; memory O(flops).
* :func:`mxm_gustavson` — row-wise Gustavson SPA semantics: each output
  row folds its products in the order a per-row sparse accumulator sees
  them.  This is the direct matrix analogue of the paper's SpMSpV kernel.

Both accept an optional structural mask (the paper's §V "novel concepts in
GraphBLAS, such as masks"): only output positions present in the mask are
kept, enabling masked products like triangle counting's ``C⟨L⟩ = L·L``.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.dcsr import DCSRMatrix
from .mask import mask_matrix
from ..algebra.semiring import PLUS_TIMES, Semiring

__all__ = ["mxm", "mxm_gustavson", "flops"]

#: Either local storage format; the SpGEMM kernels are polymorphic over
#: the shared (row, row_indices, extract_rows) surface and always produce
#: CSR output, so hypersparse DCSR blocks flow through the distributed
#: SUMMA without conversion.
LocalMatrix = CSRMatrix | DCSRMatrix


def flops(a: LocalMatrix, b: LocalMatrix) -> int:
    """Number of semiring multiplications ``A·B`` performs (size of the
    expanded product).  A pure function of the stored patterns — CSR and
    DCSR operands yield the identical count."""
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    if isinstance(b, DCSRMatrix):
        return int(b.row_lengths(a.colidx).sum())
    return int(np.diff(b.rowptr)[a.colidx].sum())


def mxm(
    a: LocalMatrix,
    b: LocalMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: CSRMatrix | None = None,
    complement: bool = False,
) -> CSRMatrix:
    """ESC SpGEMM: ``C = A ⊗ B`` (optionally ``C⟨mask⟩``).

    Expansion: for every stored ``A[i,k]``, row ``k`` of B contributes
    triples ``(i, j, A[i,k] ⊗ B[k,j])``; :meth:`CSRMatrix.from_triples`
    performs the sort+compress with the semiring's additive monoid.

    Operands may be CSR or hypersparse DCSR in any mix (the expansion
    only needs per-nonzero rows and a row gather, which both formats
    serve — DCSR via its vectorised binary-search lookup); the output is
    always CSR and bit-identical across operand formats.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    expanded = b.extract_rows(a.colidx)  # one B-row per A-nonzero
    reps = np.diff(expanded.rowptr)
    out_rows = np.repeat(a.row_indices(), reps)
    avals = np.repeat(a.values, reps)
    out_vals = np.asarray(semiring.mult(avals, expanded.values))
    c = CSRMatrix.from_triples(
        a.nrows, b.ncols, out_rows, expanded.colidx, out_vals, dup=semiring.add
    )
    if mask is not None:
        c = mask_matrix(c, mask, complement=complement)
    return c


def mxm_gustavson(
    a: LocalMatrix,
    b: LocalMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: CSRMatrix | None = None,
    complement: bool = False,
) -> CSRMatrix:
    """Row-wise Gustavson SpGEMM: per-row SPA merge semantics.

    All rows' SPA merges are batched into one vectorized pass — expand
    every product, stable ``lexsort`` by ``(row, col)``, ``reduceat`` per
    output entry with the additive monoid, cast to the SPA accumulator
    dtype.  Per output coordinate the products arrive in exactly the order
    a per-row SPA sees them, so the result is bit-identical to the per-row
    loop — ``tests/ops/test_kernel_oracles.py`` pins it against that loop.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    # a per-row SPA accumulates in this dtype; products are reduced in
    # their own dtype first and cast at the store, so the batched pass
    # reduces then casts in the same order
    acc_dtype = np.result_type(a.values, b.values)
    expanded = b.extract_rows(a.colidx)  # one B-row per A-nonzero
    reps = np.diff(expanded.rowptr)
    out_rows = np.repeat(a.row_indices(), reps)
    avals = np.repeat(a.values, reps)
    products = np.asarray(semiring.mult(avals, expanded.values))
    cols = expanded.colidx
    if products.size:
        # rows are already non-decreasing (row-major expansion); the stable
        # lexsort groups each output coordinate keeping product order
        order = np.lexsort((cols, out_rows))
        out_rows, cols, products = out_rows[order], cols[order], products[order]
        is_first = np.empty(products.size, dtype=bool)
        is_first[0] = True
        is_first[1:] = (out_rows[1:] != out_rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(is_first)
        vals = semiring.add.reduceat_dense(products, starts).astype(
            acc_dtype, copy=False
        )
        kept_rows = out_rows[starts]
        kept_cols = cols[starts]
    else:
        vals = np.empty(0, dtype=acc_dtype)
        kept_rows = np.empty(0, dtype=np.int64)
        kept_cols = np.empty(0, dtype=np.int64)
    rowptr = np.zeros(a.nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_rows, minlength=a.nrows), out=rowptr[1:])
    if a.nrows == 0:
        vals = np.empty(0)  # an empty row-concatenation's default dtype
    c = CSRMatrix(a.nrows, b.ncols, rowptr, kept_cols, vals)
    if mask is not None:
        c = mask_matrix(c, mask, complement=complement)
    return c
