"""DCSR — doubly-compressed sparse rows (hypersparse matrices).

At scale, 2-D block distribution makes local blocks *hypersparse*:
``nnz ≪ nrows``, so CSR's O(nrows) row pointer dwarfs the data (at 64
nodes, each block of the paper's n=1M matrix holds ~1/64 of the nonzeros
but a full 1M/8-row pointer).  DCSR (Buluç & Gilbert's CombBLAS format)
compresses away empty rows: only rows with stored entries appear, found by
binary search instead of direct indexing.

This is the storage answer to the paper's scaling regime; the test-suite
verifies DCSR⇄CSR round trips and that SpMSpV over DCSR blocks matches the
CSR kernels, and ``memory_bytes`` quantifies the savings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import COOMatrix
from .csr import CSRMatrix, _ranges

__all__ = ["DCSRMatrix"]


@dataclass
class DCSRMatrix:
    """Hypersparse matrix: row ids + pointers for *non-empty rows only*.

    Arrays:

    * ``rowids`` — sorted ids of the non-empty rows (length ``nzr``);
    * ``rowptr`` — length ``nzr + 1`` extents into ``colidx``/``values``;
    * ``colidx`` / ``values`` — as in CSR (columns sorted within a row).
    """

    nrows: int
    ncols: int
    rowids: np.ndarray
    rowptr: np.ndarray
    colidx: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.rowids = np.asarray(self.rowids, dtype=np.int64)
        self.rowptr = np.asarray(self.rowptr, dtype=np.int64)
        self.colidx = np.asarray(self.colidx, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.rowptr.size != self.rowids.size + 1:
            raise ValueError("rowptr must have one more entry than rowids")
        if self.colidx.size != self.values.size:
            raise ValueError("colidx/values length mismatch")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_csr(cls, a: CSRMatrix) -> "DCSRMatrix":
        """Compress a CSR matrix (drops empty-row pointer entries)."""
        lens = np.diff(a.rowptr)
        rowids = np.flatnonzero(lens > 0).astype(np.int64)
        rowptr = np.zeros(rowids.size + 1, dtype=np.int64)
        np.cumsum(lens[rowids], out=rowptr[1:])
        return cls(
            a.nrows, a.ncols, rowids, rowptr, a.colidx.copy(), a.values.copy()
        )

    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype=np.float64) -> "DCSRMatrix":
        """An object with no stored entries."""
        return cls(
            nrows,
            ncols,
            np.empty(0, np.int64),
            np.zeros(1, np.int64),
            np.empty(0, np.int64),
            np.empty(0, dtype=dtype),
        )

    # -- queries -----------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.colidx.size)

    @property
    def nzr(self) -> int:
        """Number of non-empty rows."""
        return int(self.rowids.size)

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of row ``i`` — O(log nzr) lookup, empty views
        for rows with no entries."""
        pos = int(np.searchsorted(self.rowids, i))
        if pos < self.nzr and self.rowids[pos] == i:
            s, e = int(self.rowptr[pos]), int(self.rowptr[pos + 1])
            return self.colidx[s:e], self.values[s:e]
        return self.colidx[:0], self.values[:0]

    def rows_of(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised multi-row gather for kernels (e.g. SpMSpV).

        Returns ``(hit_positions, starts, stops)``: for each queried index
        present in the matrix, its position in the query array and its
        colidx/values extent.
        """
        indices = np.asarray(indices, dtype=np.int64)
        pos = np.searchsorted(self.rowids, indices)
        pos_c = np.minimum(pos, max(self.nzr - 1, 0))
        hit = (
            (pos < self.nzr) & (self.rowids[pos_c] == indices)
            if self.nzr
            else np.zeros(indices.size, dtype=bool)
        )
        hp = np.flatnonzero(hit)
        starts = self.rowptr[pos_c[hp]]
        stops = self.rowptr[pos_c[hp] + 1]
        return hp, starts, stops

    def row_indices(self) -> np.ndarray:
        """Per-nonzero *global* row index array (COO rows) — the DCSR
        analogue of :meth:`CSRMatrix.row_indices`."""
        return np.repeat(self.rowids, np.diff(self.rowptr))

    def row_lengths(self, rows: np.ndarray) -> np.ndarray:
        """Stored-entry count of each queried row (0 for absent rows)."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = np.zeros(rows.size, dtype=np.int64)
        hp, starts, stops = self.rows_of(rows)
        lens[hp] = stops - starts
        return lens

    def extract_rows(self, rows: np.ndarray) -> CSRMatrix:
        """Submatrix of the given rows (in the given order), as CSR — the
        row-gather SpGEMM's expansion step performs per A-nonzero.

        One vectorised binary search (:meth:`rows_of`) plus a ranges
        gather, mirroring :meth:`CSRMatrix.extract_rows`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        hp, starts, stops = self.rows_of(rows)
        lens = np.zeros(rows.size, dtype=np.int64)
        lens[hp] = stops - starts
        out_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=out_ptr[1:])
        all_starts = np.zeros(rows.size, dtype=np.int64)
        all_starts[hp] = starts
        gather = _ranges(all_starts, lens)
        return CSRMatrix(
            rows.size, self.ncols, out_ptr, self.colidx[gather], self.values[gather]
        )

    def memory_bytes(self) -> int:
        """Bytes of index+value storage (the hypersparse saving vs CSR)."""
        return int(
            self.rowids.nbytes + self.rowptr.nbytes + self.colidx.nbytes + self.values.nbytes
        )

    # -- conversions -----------------------------------------------------------------

    def to_coo(self) -> COOMatrix:
        """Convert to COO triples (global row ids)."""
        return COOMatrix(
            self.nrows,
            self.ncols,
            self.row_indices(),
            self.colidx.copy(),
            self.values.copy(),
        )

    def to_csr(self) -> CSRMatrix:
        """Expand back to CSR (restores the O(nrows) pointer)."""
        lens = np.zeros(self.nrows, dtype=np.int64)
        lens[self.rowids] = np.diff(self.rowptr)
        rowptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(lens, out=rowptr[1:])
        return CSRMatrix(
            self.nrows, self.ncols, rowptr, self.colidx.copy(), self.values.copy()
        )

    def check(self) -> None:
        """Raise ``AssertionError`` on violated DCSR invariants."""
        assert self.rowptr[0] == 0 and self.rowptr[-1] == self.nnz
        assert np.all(np.diff(self.rowptr) > 0), "DCSR must not store empty rows"
        if self.nzr:
            assert np.all(np.diff(self.rowids) > 0), "rowids must be strictly sorted"
            assert self.rowids.min() >= 0 and self.rowids.max() < self.nrows
        self.to_csr().check()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DCSRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"nzr={self.nzr})"
        )
