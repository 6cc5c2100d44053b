"""Compressed Sparse Rows matrix, built from scratch on numpy arrays.

Paper §II-A: "we only considered the Compressed Sparse Rows (CSR) format …
CSR has three arrays: rowptrs is an integer array of length n+1 …, colids is
an integer array of length nnz …, and values is an array of length nnz ….
In Chapel, CSR matrices keep the column ids of nonzeros within each row
sorted."  This class keeps exactly those three arrays and that invariant.

All kernels are vectorised; no per-element Python loops.  ``scipy.sparse``
is deliberately not used — it serves only as an oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algebra.functional import IndexUnaryOp, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from .coo import COOMatrix, coalesce

__all__ = ["CSRMatrix"]


@dataclass
class CSRMatrix:
    """Sparse matrix in CSR format.

    Invariants (checked by :meth:`check`):

    * ``rowptr`` has length ``nrows + 1``, is non-decreasing, starts at 0 and
      ends at ``nnz``;
    * ``colidx`` entries are in ``[0, ncols)`` and strictly increasing within
      each row (sorted, no duplicates — Chapel's CSR invariant);
    * ``values`` is parallel to ``colidx``.
    """

    nrows: int
    ncols: int
    rowptr: np.ndarray
    colidx: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.rowptr = np.asarray(self.rowptr, dtype=np.int64)
        self.colidx = np.asarray(self.colidx, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.rowptr.size != self.nrows + 1:
            raise ValueError(
                f"rowptr length {self.rowptr.size} != nrows+1 ({self.nrows + 1})"
            )
        if self.colidx.size != self.values.size:
            raise ValueError("colidx/values length mismatch")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype=np.float64) -> "CSRMatrix":
        """An all-zero matrix."""
        return cls(
            nrows,
            ncols,
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=dtype),
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, dup: Monoid = PLUS_MONOID) -> "CSRMatrix":
        """Build from COO triples; duplicates combined with ``dup``.

        Rows are histogrammed with ``bincount`` and the row pointer is its
        exclusive prefix sum — the standard O(nnz + n) construction.
        """
        rows, cols, vals = coalesce(coo.rows, coo.cols, coo.values, dup)
        rowptr = np.zeros(coo.nrows + 1, dtype=np.int64)
        counts = np.bincount(rows, minlength=coo.nrows)
        np.cumsum(counts, out=rowptr[1:])
        return cls(coo.nrows, coo.ncols, rowptr, cols, vals)

    @classmethod
    def from_triples(
        cls,
        nrows: int,
        ncols: int,
        rows,
        cols,
        values,
        dup: Monoid = PLUS_MONOID,
    ) -> "CSRMatrix":
        """Convenience: build directly from triple arrays."""
        return cls.from_coo(COOMatrix(nrows, ncols, rows, cols, values), dup=dup)

    @classmethod
    def from_dense(cls, dense, zero=0) -> "CSRMatrix":
        """Compress a 2-D numpy array, dropping entries equal to ``zero``."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense != zero)
        return cls.from_triples(
            dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols]
        )

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSRMatrix":
        """The n×n identity matrix."""
        idx = np.arange(n, dtype=np.int64)
        return cls(
            n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n, dtype=dtype)
        )

    # -- basic queries --------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.colidx.size)

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def dtype(self):
        """Value dtype."""
        return self.values.dtype

    def row_extent(self, i: int) -> tuple[int, int]:
        """Half-open [start, stop) slice of row ``i`` in colidx/values.

        Constant-time random access to the start of a row — the property the
        paper exploits in SpMSpV's row fetches (§III-D).
        """
        return int(self.rowptr[i]), int(self.rowptr[i + 1])

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (column indices, values) of row ``i`` — no copies."""
        s, e = self.row_extent(i)
        return self.colidx[s:e], self.values[s:e]

    def row_degrees(self) -> np.ndarray:
        """nnz per row."""
        return np.diff(self.rowptr)

    def __getitem__(self, key):
        """Scalar lookup ``A[i, j]`` (binary search in row ``i``), or ``None``."""
        i, j = key
        s, e = self.row_extent(i)
        pos = s + int(np.searchsorted(self.colidx[s:e], j))
        if pos < e and self.colidx[pos] == j:
            return self.values[pos]
        return None

    # -- conversions ------------------------------------------------------------

    def row_indices(self) -> np.ndarray:
        """Expand rowptr to a per-nonzero row index array (COO rows)."""
        return np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.rowptr))

    def to_coo(self) -> COOMatrix:
        """Convert to COO triples."""
        return COOMatrix(
            self.nrows,
            self.ncols,
            self.row_indices(),
            self.colidx.copy(),
            self.values.copy(),
        )

    def to_dense(self, zero=0) -> np.ndarray:
        """Expand to a dense 2-D array (for tests / tiny examples)."""
        out = np.full((self.nrows, self.ncols), zero, dtype=self.values.dtype)
        out[self.row_indices(), self.colidx] = self.values
        return out

    def copy(self) -> "CSRMatrix":
        """A deep copy."""
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.rowptr.copy(),
            self.colidx.copy(),
            self.values.copy(),
        )

    # -- structural transforms ---------------------------------------------------

    def transposed(self) -> "CSRMatrix":
        """Transpose via a stable sort of nonzeros by column index.

        Equivalent to a CSR→CSC conversion reinterpreted as CSR of Aᵀ;
        stability keeps each output row's columns sorted because input
        nonzeros are visited in row order.
        """
        t_rowptr = np.zeros(self.ncols + 1, dtype=np.int64)
        counts = np.bincount(self.colidx, minlength=self.ncols)
        np.cumsum(counts, out=t_rowptr[1:])
        # stable ordering: sort nonzeros by (col, row); lexsort over the
        # already row-sorted colidx gives positions grouped by column with
        # rows ascending inside each group.
        order = np.argsort(self.colidx, kind="stable")
        t_colidx = self.row_indices()[order]
        t_values = self.values[order]
        return CSRMatrix(self.ncols, self.nrows, t_rowptr, t_colidx, t_values)

    def extract_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Submatrix of the given rows (in the given order).

        Vectorised gather: per-row extents become ranges concatenated with
        ``repeat``/``cumsum`` arithmetic.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.rowptr[rows]
        lens = self.rowptr[rows + 1] - starts
        out_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=out_ptr[1:])
        gather = _ranges(starts, lens)
        return CSRMatrix(
            rows.size, self.ncols, out_ptr, self.colidx[gather], self.values[gather]
        )

    def select(self, op: IndexUnaryOp, thunk=None) -> "CSRMatrix":
        """Keep entries where ``op(value, row, col, thunk)`` is truthy
        (GraphBLAS ``GrB_select``)."""
        keep = np.asarray(
            op(self.values, self.row_indices(), self.colidx, thunk), dtype=bool
        )
        kept_rows = self.row_indices()[keep]
        rowptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(kept_rows, minlength=self.nrows), out=rowptr[1:])
        return CSRMatrix(
            self.nrows, self.ncols, rowptr, self.colidx[keep], self.values[keep]
        )

    def tril(self, k: int = 0) -> "CSRMatrix":
        """Lower-triangular part (col <= row + k)."""
        from ..algebra.functional import TRIL

        return self.select(TRIL, k)

    def triu(self, k: int = 0) -> "CSRMatrix":
        """Upper-triangular part (col >= row + k)."""
        from ..algebra.functional import TRIU

        return self.select(TRIU, k)

    # -- elementwise / reductions ---------------------------------------------

    def apply(self, op: UnaryOp) -> "CSRMatrix":
        """New matrix with ``op`` applied to every stored value."""
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.rowptr.copy(),
            self.colidx.copy(),
            np.asarray(op(self.values)),
        )

    def apply_inplace(self, op: UnaryOp) -> None:
        """Apply ``op`` to stored values in place (paper's Apply semantics)."""
        self.values[...] = op(self.values)

    def reduce_rows(self, monoid: Monoid = PLUS_MONOID) -> np.ndarray:
        """Reduce each row to a scalar with ``monoid`` (dense result;
        identity for empty rows)."""
        return monoid.reduceat(self.values, self.rowptr[:-1])

    def reduce_scalar(self, monoid: Monoid = PLUS_MONOID):
        """Reduce all stored values to one scalar."""
        return monoid.reduce(self.values)

    # -- invariants --------------------------------------------------------------

    def check(self) -> None:
        """Raise ``AssertionError`` on any violated CSR invariant."""
        assert self.rowptr[0] == 0, "rowptr must start at 0"
        assert self.rowptr[-1] == self.nnz, "rowptr must end at nnz"
        assert np.all(np.diff(self.rowptr) >= 0), "rowptr must be non-decreasing"
        if self.nnz:
            assert self.colidx.min() >= 0, "negative column index"
            assert self.colidx.max() < self.ncols, "column index out of bounds"
            # strictly increasing columns within each row: diffs may only be
            # non-positive at row boundaries.
            d = np.diff(self.colidx)
            boundary = np.zeros(max(self.nnz - 1, 0), dtype=bool)
            inner_ptr = self.rowptr[1:-1]
            inner_ptr = inner_ptr[(inner_ptr > 0) & (inner_ptr < self.nnz)]
            boundary[inner_ptr - 1] = True
            assert np.all((d > 0) | boundary), "columns not sorted within a row"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CSRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"dtype={self.values.dtype})"
        )


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i]+lens[i])`` ranges, vectorised.

    ``repeat`` the rebased segment starts (zero-length segments drop out of
    ``repeat`` natively) and add the flat offset — three passes, no boolean
    scan.
    """
    seg_ends = np.cumsum(lens)
    total = int(seg_ends[-1]) if seg_ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(starts - (seg_ends - lens), lens) + np.arange(
        total, dtype=np.int64
    )
