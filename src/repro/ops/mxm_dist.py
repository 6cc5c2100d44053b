"""Distributed SpGEMM — sparse SUMMA on the 2-D grid, with a 2.5D/3D
communication-avoiding variant and mask fusion.

The paper's future work aims at "finishing a complete GraphBLAS-compliant
library" including distributed matrix-matrix multiply; this is the classic
sparse SUMMA of Buluç & Gilbert [8] on the same 2-D block distribution as
SpMSpV_dist:

for each stage ``s`` of ``q = √p`` stages:
    * the owners of A's column-block ``s`` broadcast their block along
      their processor **row**;
    * the owners of B's row-block ``s`` broadcast theirs along their
      processor **column**;
    * every locale multiplies the received pair locally (ESC SpGEMM) and
      accumulates into its output block with the semiring's add.

Communication is bulk by construction — SUMMA is the bulk-synchronous
answer to the fine-grained problems of §IV.  Requires a square grid.

Three orthogonal extensions (see ``docs/spgemm.md``):

* **Hypersparse blocks** — operand blocks may be CSR or DCSR in any mix;
  every cost formula is a function of nnz/flops only, so the block format
  never changes results *or* ledgers (only memory and wall clock).
* **Mask fusion** (``mask_mode="fused"``, the default with a mask) — each
  stage's product is pruned against the local mask block *before* it
  enters the accumulator, so the merge bill scales with the masked
  output instead of the full product and the final filter pass
  disappears.  Structural filtering commutes with the stage fold (a kept
  entry receives exactly the same stage contributions in the same
  order), so fused results are bit-identical to ``mask_mode="post"``
  (the filter-after-last-stage form, retained for ledger comparison).
* **2.5D/3D replication** (``variant="3d"``, ``layers=c`` with
  ``c = k²``, ``k | q``) — the CombBLAS 2.0 scaling recipe on a *fixed*
  machine: the p locales re-group as ``c`` replication layers, each a
  coarse ``q/k × q/k`` grid (``c·(q/k)² = p`` exactly), the ``q/k``
  coarse stages split contiguously across layers, and a final
  reduce-scatter over the layers combines the partial products — billed
  through the aggregation/overlap model.  The *value plane* stays the
  canonical fine-stage fold (same code as 2-D), so every variant is
  bit-identical and the dispatcher may choose freely on price alone;
  only the communication/compute *schedule billed* changes.
"""

from __future__ import annotations

import math

import numpy as np

from ..algebra.semiring import PLUS_TIMES, Semiring
from ..distributed.dist_matrix import DistSparseMatrix
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    flush_cost,
    flush_startup,
    num_flushes,
    overlap_exposed,
)
from ..runtime.clock import Breakdown
from ..runtime.comm import bulk_ft
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, parallel_time
from ..sparse.csr import CSRMatrix
from .ewise import ewiseadd_mm
from .mxm import flops, mxm

__all__ = ["mxm_dist", "replication_factors"]

_ITEMSIZE = 16


def replication_factors(q: int) -> list[int]:
    """Valid 3-D replication factors ``c`` for a ``q×q`` grid.

    ``c = k²`` for each ``k ≥ 2`` dividing ``q``: the ``p = q²`` locales
    re-group exactly as ``c`` layers of ``(q/k)×(q/k)`` coarse cells.
    """
    return [k * k for k in range(2, q + 1) if q % k == 0]


def _validate(a, b, mask, comm_mode, mask_mode, variant, layers):
    if comm_mode not in ("bulk", "agg"):
        raise ValueError(f"unknown comm_mode {comm_mode!r}")
    if mask_mode not in ("fused", "post"):
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    if variant not in ("2d", "3d"):
        raise ValueError(f"unknown variant {variant!r}")
    grid = a.grid
    if grid.rows != grid.cols:
        raise ValueError("sparse SUMMA requires a square locale grid")
    if (b.grid.rows, b.grid.cols) != (grid.rows, grid.cols):
        raise ValueError("A and B must share the locale grid")
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    # inner-dimension blockings must agree (A's column blocks == B's row blocks)
    if not np.array_equal(a.layout.col_blocks.bounds, b.layout.row_blocks.bounds):
        raise ValueError("inner-dimension block boundaries of A and B disagree")
    if mask is not None:
        if (mask.grid.rows, mask.grid.cols) != (grid.rows, grid.cols) or mask.shape != (
            a.nrows,
            b.ncols,
        ):
            raise ValueError("mask must share the product's distribution")
    q = grid.rows
    if variant == "3d":
        k = math.isqrt(int(layers))
        if layers < 4 or k * k != layers or q % k != 0:
            raise ValueError(
                f"3d replication layers must be k^2 with k dividing q={q}; "
                f"valid: {replication_factors(q)}, got {layers}"
            )


def mxm_dist(
    a: DistSparseMatrix,
    b: DistSparseMatrix,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    comm_mode: str = "bulk",
    mask: DistSparseMatrix | None = None,
    complement: bool = False,
    mask_mode: str = "fused",
    variant: str = "2d",
    layers: int = 1,
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseMatrix, Breakdown]:
    """Sparse SUMMA: ``C = A ⊗ B`` on matching square 2-D distributions.

    Returns the distributed product and a Breakdown with ``broadcast`` /
    ``multiply`` / ``merge`` components (per-stage costs, max over
    locales); the 3-D variant adds ``replicate`` and ``reduce``.

    ``mask`` (an aligned distributed matrix, ``complement`` honoured)
    restricts the output structurally.  ``mask_mode="fused"`` (default)
    prunes each stage product against the local mask block before the
    accumulator merge; ``"post"`` filters the accumulated block after the
    last stage.  Both produce bit-identical matrices — fusion only
    shrinks the merge/output bill (and, in 3-D, the reduce volume), never
    a surviving sum.

    ``comm_mode="agg"`` receives each stage's operand blocks through the
    aggregation layer's flush buffers and software-pipelines the stages:
    stage ``s``'s broadcasts stream while stage ``s-1``'s local multiply
    runs, so only the exposed share — ``max(comm - compute, 0)`` plus the
    pipeline-fill flush — extends the makespan (stage 0 has nothing to
    hide behind).  Fault repair stays batch-granular and un-overlapped.

    ``variant="3d"`` with ``layers=c`` bills the communication-avoiding
    2.5D schedule (replicate → ``⌈(q/k)/c⌉`` coarse stage slots → layer
    reduce-scatter) instead of the ``q``-stage 2-D one; the returned
    matrix is identical by construction (canonical value plane).
    """
    _validate(a, b, mask, comm_mode, mask_mode, variant, layers)
    if machine.faults is not None:
        machine.faults.check_grid(a.grid, "mxm_dist")
    if variant == "3d":
        return _mxm_dist_3d(
            a, b, machine,
            semiring=semiring, comm_mode=comm_mode, mask=mask,
            complement=complement, mask_mode=mask_mode, layers=layers, agg=agg,
        )
    return _mxm_dist_2d(
        a, b, machine,
        semiring=semiring, comm_mode=comm_mode, mask=mask,
        complement=complement, mask_mode=mask_mode, agg=agg,
    )


def _stage_products(a, b, s, grid, semiring, mask, complement, fused):
    """Every locale's stage-``s`` local ESC product — the shared value plane
    of the 2-D and 3-D schedules.  With ``fused`` masking each product is
    pruned against the locale's mask block before it returns; the semiring
    accumulate over stages stays with the caller."""
    use_mask = fused and mask is not None
    return [
        mxm(
            a.block(loc.row, s),
            b.block(s, loc.col),
            semiring=semiring,
            mask=mask.blocks[loc.id] if use_mask else None,
            complement=complement,
        )
        for loc in grid
    ]


def _post_filter(blocks, mask, complement, machine):
    """The unfused output filter: mask every accumulated block after the
    last stage, charging the filter pass on the *pre-filter* population."""
    from .mask import mask_matrix

    cfg = machine.config
    pen = machine.compute_penalty
    threads = machine.threads_per_locale
    filt: list[Breakdown] = []
    for k, blk in enumerate(blocks):
        blocks[k] = mask_matrix(blk, mask.blocks[k], complement=complement)
        filt.append(
            Breakdown(
                {
                    "merge": parallel_time(
                        cfg, blk.nnz * cfg.element_cost * pen, threads
                    )
                }
            )
        )
    return Breakdown.parallel(filt)


def _mxm_dist_2d(
    a, b, machine, *, semiring, comm_mode, mask, complement, mask_mode, agg
):
    """The 2-D sparse SUMMA: ``q`` stages of row/column broadcasts."""
    grid = a.grid
    q = grid.rows
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    faults = machine.faults
    fused = mask is not None and mask_mode == "fused"

    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    total = Breakdown({"broadcast": spawn})
    acc: list[CSRMatrix | None] = [None] * grid.size
    # each locale's previous-stage compute time: what stage s's aggregated
    # broadcasts can hide behind (zeros at stage 0 — the pipeline fill)
    prev_compute = [0.0] * grid.size
    for s in range(q):
        stage_cast: list[Breakdown] = []
        stage_mult: list[Breakdown] = []
        next_compute = [0.0] * grid.size
        # the stage's local multiplies are independent pure functions of
        # (A(i,s), B(s,j)[, M(i,j)]), computed before the locale loop
        products = _stage_products(a, b, s, grid, semiring, mask, complement, fused)
        for loc in grid:
            i, j = loc.row, loc.col
            a_blk = a.block(i, s)
            b_blk = b.block(s, j)

            # broadcast costs: each block travels to q-1 peers (tree), paid
            # by every receiving locale as one transfer per operand — bulk,
            # or flush-batched through the aggregation buffers; under fault
            # injection each receive is a retriable (batched) transfer
            def _recv(nnz: int, site: str, src: int) -> tuple[float, float]:
                if comm_mode == "agg":
                    if nnz <= 0:
                        return 0.0, 0.0
                    cost = flush_cost(
                        cfg, nnz, agg=agg, local=machine.oversubscribed
                    )
                    if faults is not None:
                        batches = num_flushes(nnz, agg.flush_elems)
                        return faults.batched_transfer(
                            site, batches, cost / batches, src=src, dst=loc.id
                        )
                    return cost, 0.0
                return bulk_ft(
                    cfg,
                    nnz * _ITEMSIZE,
                    faults=faults,
                    site=site,
                    src=src,
                    dst=loc.id,
                    local=machine.oversubscribed,
                )

            cast = 0.0
            retry = 0.0
            recv_elems = 0
            if s != j:  # A(i, s) arrives from another column
                base, extra = _recv(
                    a_blk.nnz, f"mxm_dist.bcastA[{s}->{loc.id}]", grid[(i, s)].id
                )
                cast += base
                retry += extra
                recv_elems += a_blk.nnz
            if s != i:  # B(s, j) arrives from another row
                base, extra = _recv(
                    b_blk.nnz, f"mxm_dist.bcastB[{s}->{loc.id}]", grid[(s, j)].id
                )
                cast += base
                retry += extra
                recv_elems += b_blk.nnz
            if comm_mode == "agg" and agg.overlap and cast > 0.0:
                cast = overlap_exposed(
                    cast,
                    prev_compute[loc.id],
                    flush_startup(
                        cfg, recv_elems, agg=agg, local=machine.oversubscribed
                    ),
                )
            cast_b = Breakdown({"broadcast": cast})
            if faults is not None:
                cast_b = cast_b + Breakdown({RETRY_STEP: retry})
            stage_cast.append(cast_b)
            # local multiply + merge into the accumulator; with a fused
            # mask the product is already pruned, so the merge bill scales
            # with the masked output (the multiply still pays full flops —
            # the ESC expansion computes every partial product either way)
            c_blk = products[loc.id]
            work = flops(a_blk, b_blk) * cfg.element_cost * pen
            slow = local_time_ft(1.0, faults=faults, locale=loc.id, site="mxm_dist")
            mult_t = parallel_time(cfg, work, threads) * slow
            merge_t = (
                parallel_time(cfg, c_blk.nnz * cfg.element_cost * pen, threads)
                * slow
            )
            next_compute[loc.id] = mult_t + merge_t
            stage_mult.append(Breakdown({"multiply": mult_t, "merge": merge_t}))
            k = loc.id
            acc[k] = c_blk if acc[k] is None else ewiseadd_mm(acc[k], c_blk, semiring.add)
        prev_compute = next_compute
        total = total + Breakdown.parallel(stage_cast) + Breakdown.parallel(stage_mult)

    # every cell received a product in stage 0, so acc is fully populated
    blocks = [blk for blk in acc if blk is not None]
    assert len(blocks) == grid.size
    if mask is not None and not fused:
        total = total + _post_filter(blocks, mask, complement, machine)
    c = DistSparseMatrix(a.nrows, b.ncols, grid, blocks)
    return c, machine.record("mxm_dist", total)


def _mxm_dist_3d(
    a, b, machine, *, semiring, comm_mode, mask, complement, mask_mode, layers, agg
):
    """The 2.5D/3D schedule on a fixed machine: ``c`` layers of coarse
    ``(q/k)×(q/k)`` grids (``c = k²``), coarse stages split across layers,
    final reduce-scatter over layers.

    Physical locale ``(i, j)`` plays layer ``l = (i mod k)·k + (j mod k)``
    of coarse cell ``(i//k, j//k)`` — so the ``c`` replicas of one coarse
    cell are exactly the ``k×k`` fine locales underneath it, and the
    closing reduce-scatter lands each locale back on (a chunk of) its own
    fine block.  Coarse block statistics are exact sums of the fine-block
    statistics; coarse product sizes use the sum of the fine stage
    products (a deterministic upper bound — unions can only dedupe).

    The value plane below is the canonical fine-stage fold — *identical
    code* to the 2-D path — so the result is bit-identical to every other
    variant; this function only bills the 3-D schedule.
    """
    grid = a.grid
    q = grid.rows
    c = int(layers)
    k = math.isqrt(c)
    q2 = q // k
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    faults = machine.faults
    local = machine.oversubscribed
    fused = mask is not None and mask_mode == "fused"

    # ---- value plane: canonical fine-stage fold (as in 2-D) + fine stats
    acc: list[CSRMatrix | None] = [None] * grid.size
    fine_flops = np.zeros((q, grid.size))
    fine_prod = np.zeros((q, grid.size))
    for s in range(q):
        products = _stage_products(a, b, s, grid, semiring, mask, complement, fused)
        for loc in grid:
            c_blk = products[loc.id]
            fine_flops[s, loc.id] = flops(a.block(loc.row, s), b.block(s, loc.col))
            fine_prod[s, loc.id] = c_blk.nnz
            kk = loc.id
            acc[kk] = (
                c_blk if acc[kk] is None else ewiseadd_mm(acc[kk], c_blk, semiring.add)
            )
    blocks = [blk for blk in acc if blk is not None]
    assert len(blocks) == grid.size
    post_bill = None
    if mask is not None and not fused:
        post_bill = _post_filter(blocks, mask, complement, machine)

    # ---- cost plane: coarse aggregates ------------------------------------
    def coarse_a_nnz(I: int, s2: int) -> int:
        return sum(
            a.block(i, u).nnz
            for i in range(I * k, (I + 1) * k)
            for u in range(s2 * k, (s2 + 1) * k)
        )

    def coarse_b_nnz(s2: int, J: int) -> int:
        return sum(
            b.block(u, j).nnz
            for u in range(s2 * k, (s2 + 1) * k)
            for j in range(J * k, (J + 1) * k)
        )

    def coarse_stats(I: int, J: int, s2: int) -> tuple[float, float]:
        """(flops, product-nnz) of coarse product (I,s2)×(s2,J) — exact
        sums of the fine stage stats over the k×k cells and k stages."""
        fl = pr = 0.0
        for i in range(I * k, (I + 1) * k):
            for j in range(J * k, (J + 1) * k):
                kid = i * q + j
                for u in range(s2 * k, (s2 + 1) * k):
                    fl += fine_flops[u, kid]
                    pr += fine_prod[u, kid]
        return fl, pr

    slots = max(-(-q2 // c), 1)  # ceil(q2 / c); layers past q2 sit idle

    def layer_cell(loc) -> tuple[int, int, int]:
        l = (loc.row % k) * k + (loc.col % k)
        return l, loc.row // k, loc.col // k

    def _recv(nnz, site, src_id, dst_id, prev):
        """One coarse broadcast receive: bulk, or flush-batched and
        overlapped against the previous slot's compute (as in 2-D)."""
        if comm_mode == "agg":
            if nnz <= 0:
                return 0.0, 0.0
            cost = flush_cost(cfg, nnz, agg=agg, local=local)
            if faults is not None:
                batches = num_flushes(nnz, agg.flush_elems)
                cost, extra = faults.batched_transfer(
                    site, batches, cost / batches, src=src_id, dst=dst_id
                )
            else:
                extra = 0.0
            if agg.overlap and cost > 0.0:
                cost = overlap_exposed(
                    cost, prev, flush_startup(cfg, nnz, agg=agg, local=local)
                )
            return cost, extra
        return bulk_ft(
            cfg, nnz * _ITEMSIZE, faults=faults, site=site,
            src=src_id, dst=dst_id, local=local,
        )

    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    total = Breakdown({"broadcast": spawn})

    # replication: each locale assembles its layer's copy of its coarse
    # A/B cell — everything in the k×k region except its own fine share
    repl: list[Breakdown] = []
    for loc in grid:
        _, I, J = layer_cell(loc)
        vol = (
            coarse_a_nnz(I, J) - a.block(loc.row, loc.col).nnz
            + coarse_b_nnz(I, J) - b.block(loc.row, loc.col).nnz
        )
        base, retry = bulk_ft(
            cfg, max(vol, 0) * _ITEMSIZE, faults=faults,
            site=f"mxm_dist3d.repl[{loc.id}]", src=loc.id, dst=loc.id, local=local,
        )
        bd = Breakdown({"replicate": base})
        if faults is not None:
            bd = bd + Breakdown({RETRY_STEP: retry})
        repl.append(bd)
    total = total + Breakdown.parallel(repl)

    # coarse stage slots: layer l runs stages [l·slots, min((l+1)·slots, q2))
    prev_compute = [0.0] * grid.size
    partial = np.zeros(grid.size)  # per-locale layer-partial size (elems)
    for t in range(slots):
        slot_cast: list[Breakdown] = []
        slot_mult: list[Breakdown] = []
        next_compute = [0.0] * grid.size
        for loc in grid:
            l, I, J = layer_cell(loc)
            s2 = l * slots + t
            if s2 >= min((l + 1) * slots, q2):
                continue  # idle layer/slot
            cast = 0.0
            retry = 0.0
            if s2 != J:
                base, extra = _recv(
                    coarse_a_nnz(I, s2), f"mxm_dist3d.bcastA[{s2}->{loc.id}]",
                    grid[(I * k + loc.row % k, s2 * k + loc.col % k)].id, loc.id,
                    prev_compute[loc.id],
                )
                cast += base
                retry += extra
            if s2 != I:
                base, extra = _recv(
                    coarse_b_nnz(s2, J), f"mxm_dist3d.bcastB[{s2}->{loc.id}]",
                    grid[(s2 * k + loc.row % k, J * k + loc.col % k)].id, loc.id,
                    prev_compute[loc.id],
                )
                cast += base
                retry += extra
            cast_b = Breakdown({"broadcast": cast})
            if faults is not None:
                cast_b = cast_b + Breakdown({RETRY_STEP: retry})
            slot_cast.append(cast_b)
            fl, pr = coarse_stats(I, J, s2)
            slow = local_time_ft(
                1.0, faults=faults, locale=loc.id, site="mxm_dist3d"
            )
            mult_t = parallel_time(cfg, fl * cfg.element_cost * pen, threads) * slow
            merge_t = parallel_time(cfg, pr * cfg.element_cost * pen, threads) * slow
            next_compute[loc.id] = mult_t + merge_t
            partial[loc.id] += pr
            slot_mult.append(Breakdown({"multiply": mult_t, "merge": merge_t}))
        prev_compute = next_compute
        total = total + Breakdown.parallel(slot_cast) + Breakdown.parallel(slot_mult)

    # reduce-scatter over the c layers of each coarse cell: every locale
    # receives (c-1)/c of the cell's summed layer partials and folds them
    # (fused masking shrank `partial`, so it shrinks this volume too)
    red: list[Breakdown] = []
    for loc in grid:
        l, I, J = layer_cell(loc)
        cell_total = sum(
            partial[(I * k + di) * q + (J * k + dj)]
            for di in range(k)
            for dj in range(k)
        )
        elems = int(round(cell_total * (c - 1) / c))
        if comm_mode == "agg":
            if elems > 0:
                comm = flush_cost(cfg, elems, agg=agg, local=local)
                if faults is not None:
                    batches = num_flushes(elems, agg.flush_elems)
                    comm, retry = faults.batched_transfer(
                        f"mxm_dist3d.reduce[{loc.id}]", batches, comm / batches,
                        src=loc.id, dst=loc.id,
                    )
                else:
                    retry = 0.0
                if agg.overlap:
                    comm = overlap_exposed(
                        comm,
                        prev_compute[loc.id],
                        flush_startup(cfg, elems, agg=agg, local=local),
                    )
            else:
                comm, retry = 0.0, 0.0
        else:
            comm, retry = bulk_ft(
                cfg, elems * _ITEMSIZE, faults=faults,
                site=f"mxm_dist3d.reduce[{loc.id}]", src=loc.id, dst=loc.id,
                local=local,
            )
        fold = parallel_time(cfg, elems * cfg.element_cost * pen, threads)
        bd = Breakdown({"reduce": comm, "merge": fold})
        if faults is not None:
            bd = bd + Breakdown({RETRY_STEP: retry})
        red.append(bd)
    total = total + Breakdown.parallel(red)
    if post_bill is not None:
        total = total + post_bill

    c_out = DistSparseMatrix(a.nrows, b.ncols, grid, blocks)
    return c_out, machine.record("mxm_dist[3d]", total)
