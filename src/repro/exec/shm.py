"""Shared-memory backend: the frontend over ``matrix_api``/``vector_api``.

Handles are the OO façades (:class:`~repro.matrix_api.Matrix`,
:class:`~repro.vector_api.Vector`); every ``vxm`` routes through one
long-lived :class:`~repro.ops.dispatch.Dispatcher`, whose transpose
cache stays warm across an algorithm's iterations, and every kernel
choice is recorded as a ``dispatch[vxm]`` span.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import BinaryOp, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import PLUS_TIMES, Semiring
from ..matrix_api import Matrix
from ..ops.dispatch import Dispatcher
from ..ops.mxm import mxm
from ..ops.spmv import spmv
from ..runtime.epoch import bump_epoch
from ..runtime.locale import Machine, shared_machine
from ..sparse.csr import CSRMatrix
from ..sparse.vector import DenseVector, SparseVector
from ..vector_api import Vector
from .backend import BackendBase
from .descriptor import Descriptor, merge_matrix, merge_vector

__all__ = ["ShmBackend"]


class ShmBackend(BackendBase):
    """Runs the frontend on a single shared-memory locale."""

    name = "shm"

    def __init__(
        self,
        machine: Machine | None = None,
        *,
        dispatcher: Dispatcher | None = None,
        mode: str = "auto",
        pull_threshold: float | None = None,
        assume_transpose_amortized: bool = True,
    ) -> None:
        super().__init__(machine or shared_machine(1))
        self.mode = mode
        self.dispatcher = dispatcher or Dispatcher(
            self.machine,
            mode=mode,
            pull_threshold=pull_threshold,
            assume_transpose_amortized=assume_transpose_amortized,
        )

    # -- constructors / bridges -------------------------------------------------

    def matrix(self, a) -> Matrix:
        """Adopt a :class:`CSRMatrix` (or pass a :class:`Matrix` through)."""
        return a if isinstance(a, Matrix) else Matrix.wrap(a)

    def vector(self, x) -> Vector:
        """Adopt a :class:`SparseVector` (or pass a :class:`Vector` through)."""
        return x if isinstance(x, Vector) else Vector.wrap(x)

    def to_csr(self, a: Matrix) -> CSRMatrix:
        """The global CSR of ``a`` (free here — storage is already global)."""
        return a.data

    def to_sparse(self, v: Vector) -> SparseVector:
        """The global sparse vector of ``v``."""
        return v.data

    # -- structure --------------------------------------------------------------

    def shape(self, a: Matrix) -> tuple[int, int]:
        """The shape of ``a``."""
        return a.shape

    def matrix_nnz(self, a: Matrix) -> int:
        """Stored entries of ``a``."""
        return a.nnz

    def vector_nnz(self, v: Vector) -> int:
        """Stored entries of ``v``."""
        return v.nnz

    def row_degrees(self, a: Matrix) -> np.ndarray:
        """Stored entries per row (dense)."""
        return a.data.row_degrees()

    def transpose(self, a: Matrix) -> Matrix:
        """``Aᵀ`` from the dispatcher's per-epoch transpose cache."""
        return Matrix(self.dispatcher.transpose_of(a.data))

    def tril(self, a: Matrix, k: int = 0) -> Matrix:
        """Lower-triangular part (``col <= row + k``)."""
        return a.tril(k)

    def extract(self, a: Matrix, rows, cols) -> Matrix:
        """``C = A(I, J)``."""
        return a.extract(rows, cols)

    def select_matrix(self, a: Matrix, op, thunk=None) -> Matrix:
        """``GrB_select`` with an index-unary op."""
        return a.select(op, thunk)

    # -- elementwise / apply / assign -------------------------------------------

    def apply_vector(self, v: Vector, op: UnaryOp) -> Vector:
        """Unary op over stored values."""
        return v.apply(op)

    def apply_matrix(self, a: Matrix, op: UnaryOp) -> Matrix:
        """Unary op over stored values."""
        return a.apply(op)

    def assign(self, dst: Vector, src: Vector) -> Vector:
        """Matching-domain assign; returns ``dst``."""
        return dst.assign(src)

    def ewise_mult(self, u: Vector, v: Vector, op: BinaryOp) -> Vector:
        """Intersection merge."""
        return u.ewise_mult(v, op)

    def ewise_add(self, u: Vector, v: Vector, op=PLUS_MONOID) -> Vector:
        """Union merge."""
        return u.ewise_add(v, op)

    # -- streaming updates ------------------------------------------------------

    def apply_updates(self, a: Matrix, batch, *, accum: BinaryOp | None = None) -> Matrix:
        """Mutate ``a`` in place by one delta batch (deletes, then upserts).

        The merged CSR's arrays are written back into ``a``'s existing
        storage object and its mutation epoch bumped, so every
        identity-anchored cache (dispatch plans, transposes) misses on
        the next use instead of serving pre-mutation results.
        """
        from ..streaming.delta import apply_batch_csr, apply_cost

        csr = a.data
        cost = apply_cost(self.machine, csr.nnz, batch)
        merged = apply_batch_csr(csr, batch, accum=accum)
        csr.rowptr, csr.colidx, csr.values = (
            merged.rowptr,
            merged.colidx,
            merged.values,
        )
        bump_epoch(csr)
        self.machine.record("apply_updates", cost)
        return a

    # -- products ---------------------------------------------------------------

    def vxm(
        self,
        v: Vector,
        a: Matrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        accum: BinaryOp | Monoid | None = None,
        out: Vector | None = None,
        desc: Descriptor | None = None,
        mode: str | None = None,
    ) -> Vector:
        """``out⟨mask, replace⟩ ⊕= v ⊗ A`` via the dispatch engine.

        ``mask`` is a dense Boolean array over the output space, fused
        into the chosen kernel; accumulation/replace are the uniform
        output merge of :mod:`repro.exec.descriptor`.
        """
        d = desc or Descriptor()
        mat = self.transpose(a) if d.transpose_a else a
        y, _ = self.dispatcher.vxm(
            mat.data,
            v.data,
            semiring=semiring,
            mask=None if mask is None else np.asarray(mask, dtype=bool),
            complement=d.complement,
            mode=mode or self.mode,
        )
        merged = merge_vector(
            y,
            None if out is None else out.data,
            mask=mask,
            complement=d.complement,
            accum=accum,
            replace=d.replace,
        )
        return Vector.wrap(merged)

    def mxv_dense(
        self, a: Matrix, x: np.ndarray, *, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """``y = A ⊗ x`` over replicated dense state."""
        return spmv(a.data, DenseVector(np.asarray(x)), semiring=semiring).values

    def mxm(
        self,
        a: Matrix,
        b: Matrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: Matrix | None = None,
        accum: BinaryOp | Monoid | None = None,
        out: Matrix | None = None,
        desc: Descriptor | None = None,
    ) -> Matrix:
        """``out⟨mask, replace⟩ ⊕= A ⊗ B`` (mask fused into the SpGEMM)."""
        d = desc or Descriptor()
        ma = self.transpose(a) if d.transpose_a else a
        mb = self.transpose(b) if d.transpose_b else b
        c = mxm(
            ma.data,
            mb.data,
            semiring=semiring,
            mask=None if mask is None else mask.data,
            complement=d.complement,
        )
        merged = merge_matrix(
            c,
            None if out is None else out.data,
            mask=None if mask is None else mask.data,
            complement=d.complement,
            accum=accum,
            replace=d.replace,
        )
        return Matrix.wrap(merged)

    # -- reductions -------------------------------------------------------------

    def reduce_vector(self, v: Vector, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar."""
        return v.reduce(monoid)

    def reduce_matrix(self, a: Matrix, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar."""
        return a.reduce(monoid)

    def reduce_rows_dense(self, a: Matrix, monoid: Monoid = PLUS_MONOID) -> np.ndarray:
        """Per-row reduction as a dense array (identity for empty rows)."""
        return np.asarray(a.data.reduce_rows(monoid))

    # -- misc -------------------------------------------------------------------

    def scale_rows(self, a: Matrix, factors: np.ndarray) -> Matrix:
        """A new matrix with row ``i`` scaled by ``factors[i]``."""
        csr = a.data
        return Matrix(
            CSRMatrix(
                csr.nrows,
                csr.ncols,
                csr.rowptr.copy(),
                csr.colidx.copy(),
                csr.values * np.asarray(factors)[csr.row_indices()],
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ShmBackend(threads={self.machine.threads_per_locale})"
