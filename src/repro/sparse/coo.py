"""COO (coordinate / triple) format — the construction format.

Chapel sparse domains are populated by adding index tuples (Listing 1,
``spD = ((0,0), (2,3))``); COO plays the same role here: an append-friendly
triple buffer that is sorted, deduplicated (combining duplicates with a
monoid, matching GraphBLAS ``GrB_Matrix_build`` ``dup`` semantics) and then
converted to CSR for computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algebra.monoid import Monoid, PLUS_MONOID
from .sort import coo_order

__all__ = ["COOMatrix", "coalesce"]


def coalesce(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    dup: Monoid = PLUS_MONOID,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triples row-major and combine duplicate coordinates with ``dup``.

    Returns new ``(rows, cols, values)`` arrays sorted by ``(row, col)`` with
    unique coordinates.  Duplicates are reduced left-to-right with the
    monoid's segmented reduction, so non-commutative-looking inputs still
    combine deterministically.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values)
    if not (rows.size == cols.size == values.size):
        raise ValueError(
            f"triple arrays disagree: {rows.size}, {cols.size}, {values.size}"
        )
    if rows.size == 0:
        return rows, cols, values
    if rows.size > 1:
        # already strictly (row, col)-sorted with unique coordinates —
        # e.g. block cuts of an existing CSR — means the stable coordinate
        # sort is the identity permutation and no duplicates need merging,
        # so the result below would be these arrays unchanged; two C
        # comparisons beat re-sorting
        up = rows[1:] > rows[:-1]
        if np.all(up | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))):
            return rows.copy(), cols.copy(), values.copy()
    # stable, so each run of duplicates keeps its input order
    order = coo_order(rows, cols)
    rows, cols, values = rows[order], cols[order], values[order]
    is_first = np.empty(rows.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if is_first.all():
        return rows, cols, values
    starts = np.flatnonzero(is_first)
    # segments are dense by construction (each start is a distinct
    # coordinate's first entry), so no identity fill is needed — which
    # also lets a bare associative op (``Monoid(op, None)``) fold them
    merged = dup.reduceat_dense(values, starts)
    return rows[starts], cols[starts], np.asarray(merged, dtype=values.dtype)


@dataclass
class COOMatrix:
    """A sparse matrix as (rows, cols, values) triples.

    Triples may be unsorted and contain duplicates until
    :meth:`coalesced` / :meth:`to_csr` is called.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.values = np.asarray(self.values)
        if not (self.rows.size == self.cols.size == self.values.size):
            raise ValueError("rows/cols/values length mismatch")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.nrows:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= self.ncols:
                raise ValueError("col index out of bounds")

    @property
    def nnz(self) -> int:
        """Number of stored triples (pre-coalesce this may count duplicates)."""
        return int(self.rows.size)

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype=np.float64) -> "COOMatrix":
        """An all-zero (no stored entries) COO matrix."""
        z = np.empty(0, dtype=np.int64)
        return cls(nrows, ncols, z, z.copy(), np.empty(0, dtype=dtype))

    def coalesced(self, dup: Monoid = PLUS_MONOID) -> "COOMatrix":
        """Return a sorted, duplicate-free copy (duplicates merged by ``dup``)."""
        r, c, v = coalesce(self.rows, self.cols, self.values, dup)
        return COOMatrix(self.nrows, self.ncols, r, c, v)

    def to_csr(self, dup: Monoid = PLUS_MONOID):
        """Convert to :class:`~repro.sparse.csr.CSRMatrix` (coalescing first)."""
        from .csr import CSRMatrix

        return CSRMatrix.from_coo(self, dup=dup)

    def transposed(self) -> "COOMatrix":
        """Transpose by swapping coordinate arrays (O(1) views copied)."""
        return COOMatrix(
            self.ncols, self.nrows, self.cols.copy(), self.rows.copy(), self.values.copy()
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"COOMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
