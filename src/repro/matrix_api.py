"""High-level GraphBLAS Matrix — the object-oriented façade over the ops.

Companion to :mod:`repro.vector_api`; together they form the API surface a
downstream application programs against::

    a = Matrix.from_edges(n, edges)          # boolean adjacency
    c = (a @ a).masked(a)                    # masked SpGEMM
    deg = a.reduce_rows()                    # out-degrees
    at = a.T                                 # transpose

Operators: ``@`` is the semiring product (PLUS_TIMES by default; use
:meth:`mxm`/:meth:`mxv` for other semirings), ``+`` / ``*`` are eWiseAdd /
eWiseMult.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    BinaryOp,
    IndexUnaryOp,
    Monoid,
    PLUS_MONOID,
    PLUS_TIMES,
    Semiring,
    UnaryOp,
)
from .ops.ewise import ewiseadd_mm, ewisemult_mm
from .ops.extract import extract_col, extract_matrix, extract_row
from .ops.mask import mask_matrix
from .ops.mxm import mxm
from .ops.reduce import reduce_cols_sparse, reduce_rows_sparse
from .ops.spmv import spmv
from .sparse.coo import COOMatrix
from .sparse.csr import CSRMatrix
from .vector_api import Mask, Vector

__all__ = ["Matrix", "MatrixMask"]


class MatrixMask:
    """A matrix write-mask with an optional complement flag."""

    def __init__(self, matrix: "Matrix", complement: bool = False) -> None:
        self.matrix = matrix
        self.complement = complement

    def __invert__(self) -> "MatrixMask":
        return MatrixMask(self.matrix, not self.complement)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        prefix = "~" if self.complement else ""
        return f"{prefix}MatrixMask({self.matrix!r})"


class Matrix:
    """A GraphBLAS matrix backed by :class:`~repro.sparse.csr.CSRMatrix`."""

    __slots__ = ("_data",)

    def __init__(self, data: CSRMatrix) -> None:
        if not isinstance(data, CSRMatrix):
            raise TypeError(f"Matrix wraps CSRMatrix, got {type(data).__name__}")
        self._data = data

    # -- constructors -----------------------------------------------------------

    @classmethod
    def sparse(cls, nrows: int, ncols: int, dtype=np.float64) -> "Matrix":
        """An empty matrix."""
        return cls(CSRMatrix.empty(nrows, ncols, dtype))

    @classmethod
    def from_triples(
        cls, nrows: int, ncols: int, rows, cols, values, dup: Monoid = PLUS_MONOID
    ) -> "Matrix":
        """``GrB_Matrix_build``: coordinate construction."""
        return cls(CSRMatrix.from_triples(nrows, ncols, rows, cols, values, dup=dup))

    @classmethod
    def from_edges(cls, n: int, edges, *, weight: float = 1.0) -> "Matrix":
        """Boolean-style adjacency from an ``(u, v)`` edge iterable."""
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if e.size == 0:
            return cls.sparse(n, n)
        return cls.from_triples(
            n, n, e[:, 0], e[:, 1], np.full(e.shape[0], weight)
        )

    @classmethod
    def from_dense(cls, dense, zero=0) -> "Matrix":
        """From dense."""
        return cls(CSRMatrix.from_dense(np.asarray(dense), zero=zero))

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "Matrix":
        """The identity element."""
        return cls(CSRMatrix.identity(n, dtype))

    @classmethod
    def wrap(cls, data: CSRMatrix) -> "Matrix":
        """Adopt an existing CSR without copying."""
        return cls(data)

    # -- storage ------------------------------------------------------------------

    @property
    def data(self) -> CSRMatrix:
        """The underlying storage (shared, not copied)."""
        return self._data

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return self._data.shape

    @property
    def nrows(self) -> int:
        """Number of rows."""
        return self._data.nrows

    @property
    def ncols(self) -> int:
        """Number of columns."""
        return self._data.ncols

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self._data.nnz

    def __getitem__(self, key):
        return self._data[key]

    def to_dense(self, zero=0) -> np.ndarray:
        """Expand to a dense numpy array."""
        return self._data.to_dense(zero=zero)

    def to_coo(self) -> COOMatrix:
        """Convert to COO triples."""
        return self._data.to_coo()

    def dup(self) -> "Matrix":
        """Deep copy (``GrB_Matrix_dup``)."""
        return Matrix(self._data.copy())

    # -- masks ---------------------------------------------------------------------

    def as_mask(self) -> MatrixMask:
        """As mask."""
        return MatrixMask(self)

    def __invert__(self) -> MatrixMask:
        return MatrixMask(self, complement=True)

    def masked(self, mask: "MatrixMask | Matrix") -> "Matrix":
        """Keep entries at positions (not) stored in the mask."""
        if isinstance(mask, Matrix):
            mask = mask.as_mask()
        return Matrix(
            mask_matrix(self._data, mask.matrix._data, complement=mask.complement)
        )

    # -- structure ops ----------------------------------------------------------------

    @property
    def T(self) -> "Matrix":
        """The transposed matrix."""
        return Matrix(self._data.transposed())

    def select(self, op: IndexUnaryOp, thunk=None) -> "Matrix":
        """``GrB_select``: positional/value filtering."""
        return Matrix(self._data.select(op, thunk))

    def tril(self, k: int = 0) -> "Matrix":
        """Lower-triangular part (col <= row + k)."""
        return Matrix(self._data.tril(k))

    def triu(self, k: int = 0) -> "Matrix":
        """Upper-triangular part (col >= row + k)."""
        return Matrix(self._data.triu(k))

    def extract(self, rows, cols) -> "Matrix":
        """``C = A(I, J)``."""
        return Matrix(
            extract_matrix(
                self._data,
                np.asarray(list(rows), np.int64),
                np.asarray(list(cols), np.int64),
            )
        )

    def row(self, i: int) -> Vector:
        """Row ``i`` as a :class:`Vector`."""
        return Vector(extract_row(self._data, i))

    def col(self, j: int) -> Vector:
        """Column ``j`` as a :class:`Vector`."""
        return Vector(extract_col(self._data, j))

    # -- elementwise ---------------------------------------------------------------------

    def apply(self, op: UnaryOp) -> "Matrix":
        """New matrix with the unary op applied to every stored value."""
        return Matrix(self._data.apply(op))

    def ewise_mult(self, other: "Matrix", op: BinaryOp) -> "Matrix":
        """Ewise mult."""
        return Matrix(ewisemult_mm(self._data, other._data, op))

    def ewise_add(self, other: "Matrix", op: BinaryOp | Monoid = PLUS_MONOID) -> "Matrix":
        """Ewise add."""
        return Matrix(ewiseadd_mm(self._data, other._data, op))

    def __mul__(self, other: "Matrix") -> "Matrix":
        from .algebra.functional import TIMES

        return self.ewise_mult(other, TIMES)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self.ewise_add(other, PLUS_MONOID)

    # -- products -----------------------------------------------------------------------

    def mxm(
        self,
        other: "Matrix",
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: "MatrixMask | Matrix | None" = None,
    ) -> "Matrix":
        """``C = A ⊗ B`` (masked SpGEMM)."""
        m = None
        complement = False
        if mask is not None:
            mm = mask.as_mask() if isinstance(mask, Matrix) else mask
            m, complement = mm.matrix._data, mm.complement
        return Matrix(
            mxm(self._data, other._data, semiring=semiring, mask=m, complement=complement)
        )

    def mxv(self, x, *, semiring: Semiring = PLUS_TIMES, mode: str = "auto", machine=None):
        """``y = A ⊗ x``.

        Dense input (numpy array / DenseVector) → dense output via the SpMV
        specialisation; sparse :class:`Vector` → direction-optimized
        dispatch on the transpose orientation (``A x ≡ (xᵀ Aᵀ)ᵀ``): push is
        an SpMSpV over ``Aᵀ``, pull scans rows of ``A`` itself.  Building
        ``Aᵀ`` through the dispatcher caches both orientations, so pull
        finds ``A`` already in hand and bills no transpose.
        """
        from .ops.dispatch import Dispatcher
        from .runtime.locale import shared_machine

        if isinstance(x, Vector):
            disp = Dispatcher(machine or shared_machine(1), mode=mode)
            at = disp.transpose_of(self._data)
            y, _ = disp.vxm(at, x.data, semiring=semiring, mode=mode)
            return Vector(y)
        return spmv(self._data, x, semiring=semiring)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return self.mxm(other)
        return self.mxv(other)

    # -- reductions -----------------------------------------------------------------------

    def reduce_rows(self, monoid: Monoid = PLUS_MONOID) -> Vector:
        """Reduce each row (absent rows omitted)."""
        return Vector(reduce_rows_sparse(self._data, monoid))

    def reduce_cols(self, monoid: Monoid = PLUS_MONOID) -> Vector:
        """Reduce each column (absent columns omitted)."""
        return Vector(reduce_cols_sparse(self._data, monoid))

    def reduce(self, monoid: Monoid = PLUS_MONOID):
        """Reduce every stored value to one scalar."""
        return monoid.reduce(self._data.values)

    # -- misc ----------------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and np.array_equal(self._data.rowptr, other._data.rowptr)
            and np.array_equal(self._data.colidx, other._data.colidx)
            and np.array_equal(self._data.values, other._data.values)
        )

    def __hash__(self):  # pragma: no cover - matrices are mutable
        raise TypeError("Matrix is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Matrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
