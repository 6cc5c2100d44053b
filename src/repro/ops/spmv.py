"""SpMV / MXV — sparse matrix × dense vector over a semiring.

The GraphBLAS ``MXV`` "can be used to multiply … a sparse matrix with a
dense vector" (paper §III); the backend "has to specialize their
implementations based on sparsity for optimal performance".  This is the
dense-vector specialisation: no SPA is needed because the output is dense —
a row-wise segmented reduction does everything.

Also provides ``vxm`` (vector × matrix, the orientation SpMSpV generalises),
the *pull*-direction :func:`vxm_pull` used by the direction-optimizing
dispatcher, and a distributed SpMV used by PageRank-style iterations.
"""

from __future__ import annotations

import numpy as np

from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistDenseVector
from ..runtime.clock import Breakdown
from ..runtime.comm import allgather, bulk
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, makespan, parallel_time
from ..sparse.csr import CSRMatrix
from ..sparse.sort import stable_argsort_bounded
from ..sparse.vector import DenseVector, SparseVector
from ..algebra.semiring import PLUS_TIMES, Semiring

__all__ = ["spmv", "vxm_dense", "vxm_pull", "vxm_pull_cost", "spmv_dist"]

#: component labels of the pull kernel's breakdown
DENSIFY_STEP = "Densify"
PULL_STEP = "Pull"
PULL_OUTPUT_STEP = "Output"


def spmv(
    a: CSRMatrix,
    x: DenseVector | np.ndarray,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> DenseVector:
    """``y = A ⊗ x`` with a dense ``x``: ``y[i] = ⊕_j A[i,j] ⊗ x[j]``.

    Rows with no stored entries produce the semiring's zero.  Fully
    vectorised: gather ``x`` at the column indices, multiply, and reduce
    per row with the additive monoid's segmented reduction.
    """
    xv = x.values if isinstance(x, DenseVector) else np.asarray(x)
    if xv.size != a.ncols:
        raise ValueError(f"x has {xv.size} entries for {a.ncols} columns")
    products = np.asarray(semiring.mult(a.values, xv[a.colidx]))
    out = np.asarray(semiring.add.reduceat(products, a.rowptr[:-1]))
    return DenseVector(out)


def vxm_dense(
    x: DenseVector | np.ndarray,
    a: CSRMatrix,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> DenseVector:
    """``y = x ⊗ A`` with dense ``x``: ``y[j] = ⊕_i x[i] ⊗ A[i,j]``.

    Implemented as the transpose orientation of :func:`spmv` without
    materialising Aᵀ: products are formed in CSR order and combined into
    the output by column with an ordered segmented pass over Aᵀ.
    """
    xv = x.values if isinstance(x, DenseVector) else np.asarray(x)
    if xv.size != a.nrows:
        raise ValueError(f"x has {xv.size} entries for {a.nrows} rows")
    products = np.asarray(semiring.mult(xv[a.row_indices()], a.values))
    # order products by column (stable: rows ascending within a column)
    order = stable_argsort_bounded(a.colidx, a.ncols)
    colptr = np.zeros(a.ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.colidx, minlength=a.ncols), out=colptr[1:])
    out = np.asarray(semiring.add.reduceat(products[order], colptr[:-1]))
    return DenseVector(out)


def vxm_pull_cost(
    machine: Machine,
    *,
    row_nnzs: np.ndarray,
    kept: int,
    out_nnz: int,
    x_capacity: int,
    x_nnz: int,
) -> Breakdown:
    """Simulated cost of the pull-direction ``y ← x A``.

    ``row_nnzs`` are the lengths of the scanned rows of ``Aᵀ`` (one per
    candidate output index, after mask restriction), so the makespan sees
    the real per-output work distribution.  Pull streams every scanned
    stored entry once — membership test plus a random dense gather of
    ``x`` — and emits its output *already sorted*, which is the structural
    advantage over push: no Step-2 sort at all.
    """
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    # building the dense value/pattern view of x: memset of the flag array
    # (cheap, bandwidth-bound) plus a scatter of the stored entries
    densify = parallel_time(
        cfg,
        (0.125 * x_capacity + 2.0 * x_nnz) * cfg.stream_cost * pen,
        threads,
    )
    # per scanned element: streaming read of (index, value) plus the random
    # x[colidx] gather — the same latency class as push's SPA scatter
    chunks = np.asarray(row_nnzs, dtype=np.float64) * (
        cfg.stream_cost + cfg.element_cost
    ) * pen
    scan = makespan(cfg, chunks, threads)
    # segmented reduce over the kept products + emitting the output pairs
    output = parallel_time(
        cfg, (2.0 * kept + 2.0 * out_nnz) * cfg.stream_cost * pen, threads
    )
    return Breakdown({DENSIFY_STEP: densify, PULL_STEP: scan, PULL_OUTPUT_STEP: output})


def vxm_pull(
    at: CSRMatrix,
    x: SparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> tuple[SparseVector, Breakdown]:
    """Pull-direction ``y ← x A`` over the pre-transposed matrix ``at = Aᵀ``.

    Instead of scattering the frontier's rows into a SPA (push), every
    candidate *output* index ``j`` scans its row of ``Aᵀ`` and combines the
    ``x`` entries found on it — Beamer's pull direction in GraphBLAS terms,
    the CombBLAS 2.0 dense-frontier specialisation.  With a ``mask`` only
    the allowed output rows are scanned at all, which is what makes pull
    win for BFS once most vertices are visited.

    Bit-for-bit identical to :func:`repro.ops.spmspv.spmspv_shm`: products
    of output ``j`` are combined in ascending input-index order, exactly the
    order push's SPA sees them, so even non-associative float rounding
    agrees.  The output needs no sort — ``Aᵀ``'s row order *is* the output
    order.
    """
    if x.capacity != at.ncols:
        raise ValueError(
            f"dimension mismatch: x has capacity {x.capacity}, Aᵀ has {at.ncols} columns"
        )
    n_out = at.nrows
    if mask is not None:
        allowed = np.asarray(mask, dtype=bool)
        if allowed.size != n_out:
            raise ValueError(f"mask length {allowed.size} != output capacity {n_out}")
        rows = np.flatnonzero(~allowed if complement else allowed).astype(np.int64)
        sub = at.extract_rows(rows)
        row_map: np.ndarray | None = rows
    else:
        sub = at
        row_map = None
    row_nnzs = np.diff(sub.rowptr)
    # dense pattern + value view of x (values only read where the pattern
    # is set, so the zero fill never reaches the semiring)
    isthere = np.zeros(x.capacity, dtype=bool)
    isthere[x.indices] = True
    xdense = np.zeros(x.capacity, dtype=x.values.dtype)
    xdense[x.indices] = x.values
    keep = isthere[sub.colidx]
    kept = int(keep.sum())
    if kept:
        out_rows = sub.row_indices()[keep]  # ascending by construction
        in_cols = sub.colidx[keep]
        products = np.asarray(semiring.mult(xdense[in_cols], sub.values[keep]))
        is_first = np.empty(kept, dtype=bool)
        is_first[0] = True
        is_first[1:] = out_rows[1:] != out_rows[:-1]
        starts = np.flatnonzero(is_first)
        out_vals = np.asarray(semiring.add.reduceat(products, starts))
        out_idx = out_rows[starts]
    else:
        out_idx = np.empty(0, dtype=np.int64)
        out_vals = np.empty(0, dtype=np.result_type(x.values, sub.values))
    if row_map is not None:
        out_idx = row_map[out_idx] if out_idx.size else out_idx
    y = SparseVector(n_out, out_idx.copy(), out_vals)
    b = vxm_pull_cost(
        machine,
        row_nnzs=row_nnzs,
        kept=kept,
        out_nnz=y.nnz,
        x_capacity=x.capacity,
        x_nnz=x.nnz,
    )
    return y, machine.record("vxm_pull", b)


def spmv_dist(
    a: DistSparseMatrix,
    x: DistDenseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
) -> tuple[DistDenseVector, Breakdown]:
    """Distributed dense-vector SpMV on the 2-D distribution.

    Per locale: allgather the row-block slice of ``x`` along the processor
    *column* teams is not needed for CSR×dense in the ``y = A x``
    orientation — each locale needs the **column**-block slice of ``x``
    (gathered along its processor column) and contributes a partial of the
    **row**-block slice of ``y`` (reduced along its processor row).  Both
    phases use bulk collectives; this operation exists to power iterative
    algorithms (PageRank) at realistic simulated cost.
    """
    if x.capacity != a.ncols:
        raise ValueError("x capacity must equal the matrix column count")
    cfg = machine.config
    grid = a.grid
    layout = a.layout
    threads = machine.threads_per_locale
    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)

    xg = x.gather().values
    per_locale: list[Breakdown] = []
    # partial row-block results per grid cell
    partials: dict[tuple[int, int], np.ndarray] = {}
    for loc in grid:
        i, j = loc.row, loc.col
        rlo, rhi, clo, chi = layout.extent(i, j)
        blk = a.block(i, j)
        lx = xg[clo:chi]
        products = np.asarray(semiring.mult(blk.values, lx[blk.colidx]))
        ly = np.asarray(semiring.add.reduceat(products, blk.rowptr[:-1]))
        partials[(i, j)] = ly
        gather_t = allgather(cfg, grid.cols, (chi - clo) * 8 // max(grid.rows, 1))
        compute_t = parallel_time(
            cfg,
            blk.nnz * cfg.stream_cost * machine.compute_penalty,
            threads,
        )
        reduce_t = allgather(cfg, grid.cols, (rhi - rlo) * 8)
        per_locale.append(
            Breakdown(
                {"gather": gather_t, "multiply": compute_t, "reduce": reduce_t}
            )
        )

    # reduce partials across each processor row, then split per locale
    out_global = np.full(a.nrows, semiring.zero, dtype=np.float64)
    row_bounds = layout.row_blocks.bounds
    for i in range(grid.rows):
        rlo, rhi = int(row_bounds[i]), int(row_bounds[i + 1])
        acc = partials[(i, 0)]
        for j in range(1, grid.cols):
            acc = np.asarray(semiring.add.op(acc, partials[(i, j)]))
        out_global[rlo:rhi] = acc
    y = DistDenseVector.from_global(out_global, grid)
    b = Breakdown({"gather": spawn}) + Breakdown.parallel(per_locale)
    return y, machine.record("spmv_dist", b)
