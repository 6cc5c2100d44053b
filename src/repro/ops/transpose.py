"""Transpose — ``GrB_transpose`` plus the distributed variant.

A thin operation over :meth:`CSRMatrix.transposed`; included as its own
module so the op-level API mirrors the GraphBLAS function list (paper §III)
and so the one distributed transpose has a home.
"""

from __future__ import annotations

from ..distributed.dist_matrix import DistSparseMatrix
from ..runtime.clock import Breakdown
from ..runtime.comm import bulk
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, parallel_time
from ..sparse.csr import CSRMatrix
from .matrix_dist import _gather_cost

__all__ = ["transpose", "transpose_dist"]


def transpose(a: CSRMatrix) -> CSRMatrix:
    """``C = Aᵀ`` (see :meth:`CSRMatrix.transposed`)."""
    return a.transposed()


def transpose_dist(
    a: DistSparseMatrix, machine: Machine
) -> tuple[DistSparseMatrix, Breakdown]:
    """Distributed transpose on any locale grid.

    Square grids (the paper's power-of-four node counts) locally
    transpose every block, then exchange block ``(i, j)`` with block
    ``(j, i)`` across the grid (``transpose_dist`` span).  Other grids
    have no partner block to swap with, so they allgather, transpose
    locally and redistribute, charging that full round trip under a
    ``transpose_dist[gathered]`` span.
    """
    grid = a.grid
    cfg = machine.config
    if grid.rows != grid.cols:
        g = a.gather(faults=machine.faults)
        comm = _gather_cost(machine, a.nnz) * 2  # collect + redistribute
        compute = parallel_time(
            cfg,
            a.nnz * cfg.element_cost * machine.compute_penalty,
            machine.threads_per_locale,
        )
        t = DistSparseMatrix.from_global(g.transposed(), grid)
        b = Breakdown({"Gather": comm, "transpose": compute})
        return t, machine.record("transpose_dist[gathered]", b)
    blocks = [None] * grid.size
    per_locale: list[Breakdown] = []
    for loc in grid:
        i, j = loc.row, loc.col
        blk = a.block(i, j)
        blocks[j * grid.cols + i] = blk.transposed()
        local_t = parallel_time(
            cfg,
            blk.nnz * cfg.element_cost * machine.compute_penalty,
            machine.threads_per_locale,
        )
        xfer = 0.0 if i == j else bulk(cfg, blk.nnz * 16, local=machine.oversubscribed)
        per_locale.append(Breakdown({"transpose": local_t + xfer}))
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    c = DistSparseMatrix(a.ncols, a.nrows, grid, blocks)  # type: ignore[arg-type]
    b = Breakdown({"transpose": spawn}) + Breakdown.parallel(per_locale)
    return c, machine.record("transpose_dist", b)
