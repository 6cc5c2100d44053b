"""Distributed backend: the frontend over :mod:`repro.dist_api`.

Handles are :class:`~repro.dist_api.DistMatrix` /
:class:`~repro.dist_api.DistVector`, so every op an algorithm issues
runs on the simulated cluster: sparse products route through the
PR 1 dispatch engine (cost-model kernel/transport selection recorded as
``dispatch[...]`` spans), transfers run under the PR 2 fault injector
attached to the machine, and aggregated transports use the PR 3
exchange layer — the algorithm sees none of it.

Grid generality: sparse SUMMA and the blockwise transpose exchange need
square locale grids; on other grids this backend transparently falls
back to gather-based forms (:func:`~repro.ops.matrix_dist.mxm_gathered`
and the gathered branch of :func:`~repro.ops.transpose.transpose_dist`),
which charge the full round trip they perform.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import BinaryOp, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from ..algebra.semiring import PLUS_TIMES, Semiring
from ..dist_api import DistMatrix, DistVector
from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistDenseVector, DistSparseVector
from ..ops.dispatch import Dispatcher
from ..ops.ewise import ewiseadd_vv, ewisemult_vv
from ..ops.spmv import spmv_dist
from ..runtime.clock import Breakdown
from ..runtime.epoch import bump_epoch
from ..runtime.locale import Machine
from ..sparse.csr import CSRMatrix
from ..sparse.formats import ensure_csr
from ..sparse.vector import SparseVector
from .backend import BackendBase
from .descriptor import Descriptor

__all__ = ["DistBackend"]


class DistBackend(BackendBase):
    """Runs the frontend on the simulated distributed machine."""

    name = "dist"

    def __init__(
        self,
        machine: Machine,
        *,
        dispatcher: Dispatcher | None = None,
    ) -> None:
        super().__init__(machine)
        self.dispatcher = dispatcher or Dispatcher(machine)

    # -- constructors / bridges -------------------------------------------------

    def matrix(self, a) -> DistMatrix:
        """Distribute a global :class:`CSRMatrix` (or adopt an existing
        distributed handle)."""
        if isinstance(a, DistMatrix):
            return a
        if isinstance(a, DistSparseMatrix):
            return DistMatrix(a, self.machine)
        return DistMatrix.distribute(a, self.machine)

    def vector(self, x) -> DistVector:
        """Distribute a global :class:`SparseVector` (or adopt an existing
        distributed handle)."""
        if isinstance(x, DistVector):
            return x
        if isinstance(x, DistSparseVector):
            return DistVector(x, self.machine)
        return DistVector.distribute(x, self.machine)

    def to_csr(self, a: DistMatrix) -> CSRMatrix:
        """Gather the global CSR (fault-aware)."""
        return a.gather()

    def to_sparse(self, v: DistVector) -> SparseVector:
        """Gather the global sparse vector (fault-aware)."""
        return v.gather()

    # -- structure --------------------------------------------------------------

    def shape(self, a: DistMatrix) -> tuple[int, int]:
        """The shape of ``a``."""
        return a.shape

    def matrix_nnz(self, a: DistMatrix) -> int:
        """Stored entries of ``a``."""
        return a.nnz

    def vector_nnz(self, v: DistVector) -> int:
        """Stored entries of ``v``."""
        return v.nnz

    def row_degrees(self, a: DistMatrix) -> np.ndarray:
        """Stored entries per row (blockwise partial counts)."""
        return a.row_degrees()

    def transpose(self, a: DistMatrix) -> DistMatrix:
        """``Aᵀ`` from the dispatcher's per-epoch transpose cache."""
        return DistMatrix(self.dispatcher.transpose_of(a.data), self.machine)

    def tril(self, a: DistMatrix, k: int = 0) -> DistMatrix:
        """Lower-triangular part (blockwise select, global coordinates)."""
        return a.tril(k)

    def extract(self, a: DistMatrix, rows, cols) -> DistMatrix:
        """``C = A(I, J)`` (gather / extract / redistribute)."""
        return a.extract(rows, cols)

    def select_matrix(self, a: DistMatrix, op, thunk=None) -> DistMatrix:
        """``GrB_select`` blockwise with rebased global indices."""
        return a.select(op, thunk)

    # -- elementwise / apply / assign -------------------------------------------

    def apply_vector(self, v: DistVector, op: UnaryOp) -> DistVector:
        """Unary op over stored values (SPMD apply)."""
        return v.apply(op)

    def apply_matrix(self, a: DistMatrix, op: UnaryOp) -> DistMatrix:
        """Unary op over stored values (SPMD apply)."""
        return a.apply(op)

    def assign(self, dst: DistVector, src: DistVector) -> DistVector:
        """Matching-distribution assign; returns ``dst``."""
        return dst.assign_from(src)

    def ewise_mult(self, u: DistVector, v: DistVector, op: BinaryOp) -> DistVector:
        """Intersection merge (blockwise on the aligned distributions)."""
        return self._ewise(u, v, lambda a, b: ewisemult_vv(a, b, op))

    def ewise_add(self, u: DistVector, v: DistVector, op=PLUS_MONOID) -> DistVector:
        """Union merge (blockwise on the aligned distributions)."""
        return self._ewise(u, v, lambda a, b: ewiseadd_vv(a, b, op))

    def _ewise(self, u: DistVector, v: DistVector, merge) -> DistVector:
        ud, vd = u.data, v.data
        if ud.capacity != vd.capacity or (ud.grid.rows, ud.grid.cols) != (
            vd.grid.rows,
            vd.grid.cols,
        ):
            raise ValueError("elementwise operands must share the distribution")
        blocks = [merge(a, b) for a, b in zip(ud.blocks, vd.blocks)]
        return DistVector(
            DistSparseVector(ud.capacity, ud.grid, blocks), self.machine
        )

    # -- streaming updates ------------------------------------------------------

    def apply_updates(self, a: DistMatrix, batch, *, accum=None) -> DistMatrix:
        """Mutate ``a`` in place by one delta batch, SPMD-style.

        The batch's deltas are cut into the same 2-D block partition as
        ``a``, each locale merges its own block (cost = the slowest
        locale, coforall semantics), and the merged blocks are written
        back through :func:`~repro.ops.assign.assign_agg` — so the
        write-back bills the aggregated get/put streams and retries
        whole batches under fault injection, exactly like every other
        distributed assign.  Block storage formats are preserved, and
        the storage mutation epoch is bumped so identity-anchored plan
        and transpose caches miss from the next op on.
        """
        from ..ops.assign import assign_agg
        from ..streaming.delta import UpdateBatch, apply_batch_csr, apply_cost

        dist = a.data
        if batch.shape != dist.shape:
            raise ValueError(
                f"batch shape {batch.shape} != matrix shape {dist.shape}"
            )
        grid = dist.grid
        ups = batch.upserts_csr()
        dels = batch.deletes_csr()
        ups_d = None if ups is None else DistSparseMatrix.from_global(ups, grid)
        dels_d = None if dels is None else DistSparseMatrix.from_global(dels, grid)
        merged: list[CSRMatrix] = []
        slowest = 0.0
        for k, blk in enumerate(dist.blocks):
            blk_csr = ensure_csr(blk)
            local = UpdateBatch(
                blk_csr.nrows,
                blk_csr.ncols,
                upserts=None if ups_d is None else ups_d.blocks[k],
                deletes=None if dels_d is None else dels_d.blocks[k],
            )
            slowest = max(
                slowest, apply_cost(self.machine, blk_csr.nnz, local).total
            )
            merged.append(apply_batch_csr(blk_csr, local, accum=accum))
        self.machine.record("apply_updates", Breakdown({"apply": slowest}))
        src = DistSparseMatrix(dist.nrows, dist.ncols, grid, merged)
        assign_agg(dist, src, self.machine)
        for blk in dist.blocks:
            bump_epoch(blk)
        bump_epoch(dist)
        return a

    # -- products ---------------------------------------------------------------

    def vxm(
        self,
        v: DistVector,
        a: DistMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        accum=None,
        out: DistVector | None = None,
        desc: Descriptor | None = None,
        mode: str | None = None,
    ) -> DistVector:
        """``out⟨mask, replace⟩ ⊕= v ⊗ A`` via the distributed dispatcher.

        ``mask`` (dense Boolean over the output space) is fused into the
        masked distributed SpMSpV; the dispatcher prices every
        communication/sort axis (``mode`` is the shared-memory kernel knob
        and is ignored here).
        """
        d = desc or Descriptor()
        mat = self.transpose(a) if d.transpose_a else a
        return v.vxm(
            mat,
            semiring=semiring,
            mask=mask,
            accum=accum,
            out=out,
            desc=d,
            dispatcher=self.dispatcher,
        )

    def mxv_dense(
        self, a: DistMatrix, x: np.ndarray, *, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """``y = A ⊗ x`` over replicated dense state."""
        xd = DistDenseVector.from_global(np.asarray(x), self.machine.grid)
        y, _ = spmv_dist(a.data, xd, self.machine, semiring=semiring)
        return y.gather(faults=self.machine.faults).values

    def mxm(
        self,
        a: DistMatrix,
        b: DistMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: DistMatrix | None = None,
        accum=None,
        out: DistMatrix | None = None,
        desc: Descriptor | None = None,
    ) -> DistMatrix:
        """``out⟨mask, replace⟩ ⊕= A ⊗ B``.

        Every grid shape routes through the dispatcher's schedule axis:
        square grids pick among the 2-D / 3-D×``c`` sparse SUMMA
        schedules, non-square grids take the gathered fallback (which
        charges its full round trip) — with the identical descriptor
        output step on either path.
        """
        d = desc or Descriptor()
        ma = self.transpose(a) if d.transpose_a else a
        mb = self.transpose(b) if d.transpose_b else b
        return ma.mxm(
            mb,
            semiring=semiring,
            mask=mask,
            complement=d.complement,
            accum=accum,
            out=out,
            desc=Descriptor(replace=d.replace),
            dispatcher=self.dispatcher,
        )

    # -- reductions -------------------------------------------------------------

    def reduce_vector(self, v: DistVector, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar (cross-locale reduction)."""
        return v.reduce(monoid)

    def reduce_matrix(self, a: DistMatrix, monoid: Monoid = PLUS_MONOID):
        """Fold stored values to a scalar (blockwise partials)."""
        return a.reduce(monoid)

    def reduce_rows_dense(
        self, a: DistMatrix, monoid: Monoid = PLUS_MONOID
    ) -> np.ndarray:
        """Per-row reduction as a dense array (identity for empty rows)."""
        return a.reduce_rows_dense(monoid)

    # -- misc -------------------------------------------------------------------

    def scale_rows(self, a: DistMatrix, factors: np.ndarray) -> DistMatrix:
        """A new matrix with row ``i`` scaled by ``factors[i]``."""
        return a.scale_rows(factors)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistBackend(p={self.machine.num_locales}, "
            f"grid={self.machine.grid.rows}x{self.machine.grid.cols})"
        )
