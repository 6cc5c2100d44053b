"""SpMSpV — sparse matrix × sparse vector over a semiring (paper §III-D).

``y ← x A`` where ``A ∈ R^{m×n}`` is CSR and ``x ∈ R^{1×m}`` is sparse:
for every stored ``x[i]`` fetch row ``A[i, :]`` and merge the products into
a sparse accumulator (SPA).

Shared memory (:func:`spmspv_shm`, Listing 7) has three timed components,
plotted separately in the paper's Fig 7:

* **SPA** — merge the selected rows through the accumulator;
* **Sorting** — sort the accumulated indices (parallel merge sort in the
  paper; radix sort available as the paper's proposed improvement);
* **Output** — build the output sparse vector from the sorted SPA.

Distributed memory (:func:`spmspv_dist`, Listing 8) uses the shared-memory
kernel per locale and has the Fig 8-9 components:

* **Gather Input** — assemble each locale's row-block slice of ``x`` from
  the locales of its processor row (fine-grained in the paper; a
  bulk-synchronous variant is provided for the §IV recommendation);
* **Local Multiply** — per-locale :func:`spmspv_shm`;
* **Scatter output** — merge per-locale partial outputs through a global
  SPA across processor columns.
"""

from __future__ import annotations

import numpy as np

from ..distributed.block import GridBlock1D
from ..distributed.dist_matrix import DistSparseMatrix, DistSparseMatrix1D
from ..distributed.dist_vector import DistSparseVector
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    ceil_div,
    exchange,
    flush_startup,
    gather_agg_ft,
    group_by_owner,
    merge_superstep_batches,
    overlap_exposed,
)
from ..runtime.atomics import scattered_rmw
from ..runtime.clock import Breakdown
from ..runtime.comm import (
    allgather,
    bulk,
    bulk_ft,
    fine_grained,
    gather_parts_ft,
    reduce_scatter,
)
from ..runtime.config import MachineConfig
from ..runtime.faults import RETRY_STEP
from ..runtime.locale import Machine
from ..runtime.tasks import coforall_spawn, local_time_ft, makespan, parallel_time, sort_time
from ..sparse.csr import CSRMatrix, _ranges as _csr_ranges
from ..sparse.sort import stable_argsort_bounded
from ..sparse.vector import SparseVector
from ..algebra.semiring import PLUS_TIMES, Semiring

__all__ = [
    "spmspv_shm",
    "spmspv_dist",
    "spmspv_dist_1d",
    "spmspv_shm_cost",
    "bulk_scatter_cost",
]

#: component labels, matching the paper's figure legends
SPA_STEP = "SPA"
SORT_STEP = "Sorting"
OUTPUT_STEP = "Output"
GATHER_STEP = "Gather Input"
MULTIPLY_STEP = "Local Multiply"
SCATTER_STEP = "Scatter output"


def bulk_scatter_cost(
    cfg: MachineConfig, pr: int, remote_elems: int, itemsize: int = 16
) -> float:
    """One locale's ``scatter_mode="bulk"`` bill: an allgather over the
    processor column approximating its share of the batched exchange.

    Per-peer volume uses *ceiling* division: with fewer remote elements
    than peers, floor division charged 0 bytes and undercut even the
    remote-latency floor of the fine-grained path.
    """
    per_peer = ceil_div(remote_elems, max(pr - 1, 1)) if remote_elems > 0 else 0
    return allgather(cfg, pr, per_peer * itemsize)


def spmspv_shm_cost(
    machine: Machine,
    *,
    row_nnzs: np.ndarray,
    out_nnz: int,
    ncols: int,
    sort: str = "merge",
) -> Breakdown:
    """Simulated cost of the shared-memory SpMSpV.

    ``row_nnzs`` are the lengths of the matrix rows selected by the input
    vector's nonzeros — the real per-iteration work items, so skewed inputs
    produce genuine load imbalance in the makespan.
    """
    cfg = machine.config
    threads = machine.threads_per_locale
    pen = machine.compute_penalty
    t_mem = max(min(threads, cfg.mem_channels), 1)
    touched = int(np.asarray(row_nnzs).sum())
    # the SPA scatter is random access over an O(ncols) array: a large
    # fraction of it is memory-latency/bandwidth bound and stops speeding
    # up beyond the memory channels — this (not the atomics) is what caps
    # SpMSpV at the paper's 9-11x rather than Apply's ~20x.
    mem_fraction = 0.4
    chunks = np.asarray(row_nnzs, dtype=np.float64) * cfg.element_cost * pen
    spa_scan = makespan(cfg, chunks * (1.0 - mem_fraction), threads) + (
        mem_fraction * touched * cfg.element_cost * pen / t_mem
    )
    spa_atomics = scattered_rmw(cfg, touched, threads, n_addresses=max(ncols, 1))
    # radix passes depend on the actual key range: indices are < ncols
    key_bits = max(int(ncols - 1).bit_length(), 1) if ncols > 1 else 1
    sorting = sort_time(cfg, out_nnz, threads, algorithm=sort, key_bits=key_bits) * pen
    output = parallel_time(cfg, 2.0 * out_nnz * cfg.element_cost * pen, threads)
    return Breakdown(
        {
            SPA_STEP: spa_scan + spa_atomics * pen,
            SORT_STEP: sorting,
            OUTPUT_STEP: output,
        }
    )


def spmspv_shm(
    a: CSRMatrix,
    x: SparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> tuple[SparseVector, Breakdown]:
    """Listing 7: SPA-based shared-memory SpMSpV, ``y ← x A``.

    Generalises the listing's "keep row index as value" special case to an
    arbitrary semiring: products ``x[i] ⊗ A[i, j]`` are combined into
    ``y[j]`` with the additive monoid.  ``sort`` selects the Step-2
    algorithm: ``"merge"`` (the paper's) or ``"radix"`` (its recommended
    replacement).

    ``mask`` (a dense Boolean array over the output index space, optionally
    ``complement``-ed) applies *during accumulation*: masked-out products
    never enter the SPA, so the masked kernel does less work — the paper's
    §V future-work feature ("masks … have not been attempted in distributed
    memory before").
    """
    if x.capacity != a.nrows:
        raise ValueError(
            f"dimension mismatch: x has capacity {x.capacity}, A has {a.nrows} rows"
        )
    y, row_nnzs = _local_spmspv(a, x, semiring, mask=mask, complement=complement)
    b = spmspv_shm_cost(
        machine, row_nnzs=row_nnzs, out_nnz=y.nnz, ncols=a.ncols, sort=sort
    )
    return y, machine.record("spmspv_shm", b)


def _local_spmspv(
    a: CSRMatrix,
    x: SparseVector,
    semiring: Semiring,
    *,
    mask: np.ndarray | None = None,
    complement: bool = False,
) -> tuple[SparseVector, np.ndarray]:
    """Compute-only local SpMSpV; returns (result, selected row lengths).

    ``mask`` filters products by output index *before* SPA insertion.  The
    output is sorted whichever sort the caller charges for: the ``sort``
    choice only shapes the *simulated* cost (:func:`spmspv_shm_cost`).
    """
    # raw row gather: same arrays extract_rows would produce, without
    # materialising the intermediate CSRMatrix (its rowptr is only ever
    # diffed back into the per-row lengths we already have)
    starts = a.rowptr[x.indices]
    row_nnzs = a.rowptr[x.indices + 1] - starts
    gather = _csr_ranges(starts, row_nnzs)
    cols = a.colidx[gather]
    xvals = np.repeat(x.values, row_nnzs)
    products = np.asarray(semiring.mult(xvals, a.values[gather]))
    if mask is not None:
        allowed = np.asarray(mask, dtype=bool)
        if allowed.size != a.ncols:
            raise ValueError(
                f"mask length {allowed.size} != output capacity {a.ncols}"
            )
        keep = ~allowed[cols] if complement else allowed[cols]
        cols = cols[keep]
        products = products[keep]
    # Sort-reduce, bit-identical to merging through a SPA and sorting its
    # nonzero indices: a stable argsort of `cols` applies the same
    # permutation as the SPA's stable argsort of the unique-inverse (the
    # inverse is the rank of the column, so the two key sequences have
    # identical relative order), the segment heads are the ascending unique
    # columns (== the SPA's sorted nzinds), and each segment is folded
    # left-to-right by the same monoid.reduceat in the same dtype, then cast
    # at store exactly as the dense SPA array would.
    if products.size == 0:
        return (
            SparseVector(
                a.ncols,
                np.empty(0, np.int64),
                np.empty(0, dtype=products.dtype),
            ),
            row_nnzs,
        )
    order = stable_argsort_bounded(cols, a.ncols)
    sc = cols[order]
    is_first = np.empty(sc.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = sc[1:] != sc[:-1]
    if is_first.all():
        # no duplicate columns: mirror the SPA's no-fold shortcut, which
        # stores the raw products without a reduceat round-trip
        vals = products[order]
    else:
        starts = np.flatnonzero(is_first)
        # boundary starts are strictly increasing and in range by
        # construction — the dense reduceat applies
        vals = semiring.add.reduceat_dense(products[order], starts).astype(
            products.dtype, copy=False
        )
        sc = sc[starts]
    return SparseVector(a.ncols, sc, vals), row_nnzs


def spmspv_dist(
    a: DistSparseMatrix,
    x: DistSparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
    gather_mode: str = "fine",
    scatter_mode: str = "fine",
    mask: np.ndarray | None = None,
    complement: bool = False,
    agg: AggregationConfig = AGG_DEFAULT,
) -> tuple[DistSparseVector, Breakdown]:
    """Listing 8: distributed SpMSpV on a 2-D block distribution.

    ``gather_mode`` / ``scatter_mode`` select ``"fine"`` (the paper's
    element-at-a-time implementation, whose communication dominates at
    scale — Figs 8-9), ``"bulk"`` (a one-shot allgather approximation of
    the §IV recommendation; compared in
    ``benchmarks/test_abl_bulk_scatter.py``), or ``"agg"`` (the
    destination-buffered exchange of :mod:`repro.runtime.aggregation`:
    coalescing flush buffers, two-hop row-then-column routing for the
    scatter, and comm/compute overlap — tuned by ``agg``; see
    ``docs/aggregation.md`` and ``benchmarks/test_abl_aggregation.py``).

    ``mask``/``complement`` implement the paper's §V future work —
    *distributed masks*: each locale applies its column-block slice of the
    dense Boolean mask during local accumulation, so masked-out entries are
    neither computed nor scattered (BFS's visited-pruning moves inside the
    kernel and the scatter volume drops accordingly).

    When ``machine.faults`` is set the kernel runs under that fault plan:
    transient gather faults are repaired by re-gathering the part from its
    owning locale, dropped/duplicated scatter puts are re-sent/de-duplicated
    at the owner, stragglers stretch their locale's local multiply — all
    charged to the ``Retries`` breakdown component, with the result still
    bit-identical to fault-free execution.  A failed locale (or an
    exhausted retry budget) raises
    :class:`~repro.runtime.faults.LocaleFailure` instead.
    """
    if mask is not None and np.asarray(mask).size != a.ncols:
        raise ValueError("mask length must equal the matrix column count")
    if x.capacity != a.nrows:
        raise ValueError("x capacity must equal the matrix row count")
    if x.grid is not a.grid and (x.grid.rows, x.grid.cols) != (a.grid.rows, a.grid.cols):
        raise ValueError("x and A must share the locale grid")
    cfg = machine.config
    grid = a.grid
    pr, pc = grid.rows, grid.cols
    threads = machine.threads_per_locale
    layout = a.layout
    itemsize = 16  # (int64 index, float64 value) per transferred element
    local = machine.oversubscribed
    faults = machine.faults
    if faults is not None:
        # an SPMD kernel needs every locale of the grid alive; a down
        # locale is an uncovered fault and fails the whole op up front
        faults.check_grid(grid, "spmspv_dist")

    spawn = coforall_spawn(cfg, machine.num_locales, machine.locales_per_node)
    # per-locale per-step seconds; every list is one Breakdown component, so
    # the final assembly folds each with max() — the same value (bit for
    # bit) Breakdown.parallel over single-component breakdowns produces,
    # without constructing ~5 dicts per locale per superstep
    gather_ts: list[float] = []
    multiply_ts: list[float] = []
    scatter_ts: list[float] = []
    retry_ts: list[float] = []
    # partial outputs grouped by owner locale of the global index.  The
    # output index space is the matrix's COLUMN space — for non-square
    # matrices this differs from x's partition (over the row space).
    out_dist = GridBlock1D.for_grid(a.ncols, grid)
    owner_indices: list[list[np.ndarray]] = [[] for _ in range(grid.size)]
    owner_values: list[list[np.ndarray]] = [[] for _ in range(grid.size)]
    # fault-free runs: instead of appending per-(locale, owner) slices and
    # merging each owner with its own sort, keep every locale's full sorted
    # batch and merge the whole superstep with ONE global stable sort after
    # the loop (see the merge step below for the identity argument).  Fault
    # runs keep the per-owner loop — deliver_puts must see each (src, dst)
    # stream individually.
    global_merge = faults is None
    sent_idx: list[np.ndarray] = []
    sent_vals: list[np.ndarray] = []
    # per-(source, destination) scatter traffic, filled during the loop and
    # costed afterwards when the aggregated exchange needs the whole matrix.
    scatter_counts = np.zeros((grid.size, grid.size), np.int64)
    # the gathered slice lx is a pure function of the processor ROW (every
    # locale of row i assembles the same parts shifted by the same rlo), so
    # it is built once per row and shared read-only — pc× fewer
    # concatenations
    lx_by_row: dict[int, SparseVector] = {}
    # loop invariants: the put cost is a pure function of machine constants,
    # the x partition bounds never change mid-op, and the row team (with its
    # part sizes) depends only on the processor row
    put_cost = fine_grained(
        cfg, 1, threads=threads, concurrent_peers=pr, local=local
    )
    xb_bounds = x.dist.bounds
    teams_by_row: dict[int, tuple[list, list[int]]] = {}

    for loc in grid:
        i, j = loc.row, loc.col
        rlo, rhi, clo, chi = layout.extent(i, j)
        # ---- Step 1: gather x parts along processor row i ----------------
        team = teams_by_row.get(i)
        if team is None:
            row_team = grid.row_team(i)
            part_sizes = [x.blocks[t.id].nnz for t in row_team]
            teams_by_row[i] = (row_team, part_sizes)
        else:
            row_team, part_sizes = team
        lx = lx_by_row.get(i)
        if lx is None:
            idx_parts, val_parts = [], []
            for t in row_team:
                blk = x.blocks[t.id]
                idx_parts.append(blk.indices + (xb_bounds[t.id] - rlo))
                val_parts.append(blk.values)
            lx = SparseVector(
                rhi - rlo,
                np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64),
                np.concatenate(val_parts) if val_parts else np.empty(0),
            )
            lx_by_row[i] = lx
        remote_parts = [
            s for t, s in zip(row_team, part_sizes) if t.id != loc.id
        ]
        remote_srcs = [t.id for t in row_team if t.id != loc.id]
        retry_t = 0.0
        # Listing 8 copies the locale's OWN part into lxDom too — a local
        # memcpy that gives the 1-node gather its (small) measured cost
        own_copy = bulk(cfg, x.blocks[loc.id].nnz * itemsize, local=True)
        if gather_mode == "fine":
            base, extra = gather_parts_ft(
                cfg,
                remote_parts,
                remote_srcs,
                faults=faults,
                site="spmspv_dist.gather",
                dst=loc.id,
                threads=threads,
                concurrent_peers=pc,
                local=local,
            )
            gt = own_copy + base
            retry_t += extra
        elif gather_mode == "bulk":
            gt = own_copy
            for s, src in zip(remote_parts, remote_srcs):
                base, extra = bulk_ft(
                    cfg,
                    s * itemsize,
                    faults=faults,
                    site=f"spmspv_dist.gather.bulk[{src}->{loc.id}]",
                    src=src,
                    dst=loc.id,
                    local=local,
                )
                gt += base
                retry_t += extra
        elif gather_mode == "agg":
            # flush-batched streams from the row team: one buffer setup for
            # the whole team, no per-element latency, batch-granular retries
            base, extra = gather_agg_ft(
                cfg,
                remote_parts,
                remote_srcs,
                faults=faults,
                site="spmspv_dist.gather",
                dst=loc.id,
                agg=agg,
                local=local,
            )
            gt = own_copy + base
            retry_t += extra
        else:
            raise ValueError(f"unknown gather_mode {gather_mode!r}")
        gather_ts.append(gt)

        # ---- Step 2: local multiply (with this column block's mask slice)
        mask_slice = (
            np.asarray(mask, dtype=bool)[clo:chi] if mask is not None else None
        )
        ly, row_nnzs = _local_spmspv(
            a.block(i, j), lx, semiring, mask=mask_slice, complement=complement
        )
        mb = spmspv_shm_cost(
            machine,
            row_nnzs=row_nnzs,
            out_nnz=ly.nnz,
            ncols=chi - clo,
            sort=sort,
        )
        multiply_ts.append(
            local_time_ft(
                mb.total,
                faults=faults,
                locale=loc.id,
                site="spmspv_dist.multiply",
            )
        )

        # ---- Step 3: scatter ly into the global output -------------------
        # element-wise puts to the owning locales; under fault injection
        # dropped puts are re-sent after an ack timeout and duplicated puts
        # de-duplicated at the owner by their sequence tag, so the merged
        # output stays bit-identical to fault-free execution
        gidx = ly.indices + clo
        owners = out_dist.owners(gidx) if gidx.size else np.empty(0, np.int64)
        # group the outgoing puts by owner in one vectorised pass (stable,
        # ascending owners — bit-compatible with the per-owner mask loop).
        # ly.indices is sorted and out_dist is contiguous, so owners is
        # already non-decreasing: skip the identity argsort.
        uniq, offsets, (gidx_s, vals_s) = group_by_owner(
            owners, gidx, ly.values, assume_sorted=True
        )
        if uniq.size:
            scatter_counts[loc.id, uniq] = offsets[1:] - offsets[:-1]
        if global_merge:
            if gidx_s.size:
                sent_idx.append(gidx_s)
                sent_vals.append(vals_s)
        else:
            for k, o in enumerate(uniq):
                o = int(o)
                idx_o = gidx_s[offsets[k] : offsets[k + 1]] - out_dist.bounds[o]
                val_o = vals_s[offsets[k] : offsets[k + 1]]
                if faults is not None and o != loc.id and scatter_mode != "agg":
                    # element-wise modes: puts can drop/duplicate
                    # individually.  The aggregated exchange ships
                    # sequence-tagged batches instead, so its delivery is
                    # exact by construction and its batch-level faults are
                    # charged post-loop by exchange().
                    idx_o, val_o, extra = faults.deliver_puts(
                        f"spmspv_dist.scatter[{loc.id}->{o}]",
                        idx_o,
                        val_o,
                        src=loc.id,
                        dst=o,
                        per_element_seconds=put_cost,
                    )
                    retry_t += extra
                owner_indices[o].append(idx_o)
                owner_values[o].append(val_o)
        remote_elems = int((owners != loc.id).sum()) if gidx.size else 0
        if scatter_mode == "fine":
            st = fine_grained(
                cfg, remote_elems, threads=threads, concurrent_peers=pr, local=local
            )
        elif scatter_mode == "bulk":
            st = bulk_scatter_cost(cfg, pr, remote_elems, itemsize)
        elif scatter_mode == "agg":
            st = 0.0  # costed post-loop from the full traffic matrix
        else:
            raise ValueError(f"unknown scatter_mode {scatter_mode!r}")
        scatter_ts.append(st)
        retry_ts.append(retry_t)

    if scatter_mode == "agg":
        # two-hop destination-buffered exchange over the whole grid; each
        # locale's transfer streams behind its local multiply, so only the
        # exposed share (plus the pipeline-fill flush) hits the makespan
        ex = exchange(
            cfg,
            grid,
            scatter_counts,
            agg=agg,
            local=local,
            faults=faults,
            site="spmspv_dist.scatter",
        )
        for k in range(grid.size):
            comm = float(ex.send_seconds[k])
            if agg.overlap and comm > 0.0:
                out_remote = int(scatter_counts[k].sum() - scatter_counts[k, k])
                comm = overlap_exposed(
                    comm,
                    multiply_ts[k],
                    flush_startup(cfg, out_remote, agg=agg, local=local),
                )
            scatter_ts[k] = comm
            if faults is not None:
                retry_ts[k] = retry_ts[k] + float(ex.retry_seconds[k])

    # merge partial outputs at their owners (the "global SPA" + denseToSparse)
    out_blocks: list[SparseVector] = []
    finalize_ts: list[float] = []
    if global_merge:
        # One global stable sort replaces the per-owner from_pairs merges
        # (see merge_superstep_batches for the bit-identity argument: the
        # owner is a function of the index, equal-index entries keep the
        # source-locale batch order, dedup segments never cross an owner
        # boundary, and each segment folds left-to-right with the same
        # monoid in the same dtype).
        midx, mvals, cutpos = merge_superstep_batches(
            out_dist.bounds,
            sent_idx,
            sent_vals,
            combine=semiring.add.reduceat_dense,
        )
    for k in range(grid.size):
        cap = out_dist.size_of(k)
        if global_merge:
            lo, hi = int(cutpos[k]), int(cutpos[k + 1])
            if hi > lo:
                out_blocks.append(
                    SparseVector(
                        cap, midx[lo:hi] - out_dist.bounds[k], mvals[lo:hi]
                    )
                )
            else:
                out_blocks.append(SparseVector.empty(cap))
        elif owner_indices[k]:
            idx = np.concatenate(owner_indices[k])
            vals = np.concatenate(owner_values[k])
            out_blocks.append(SparseVector.from_pairs(cap, idx, vals, dup=semiring.add))
        else:
            out_blocks.append(SparseVector.empty(cap))
        # each locale compacts its dense SPA slice back to sparse
        finalize_ts.append(
            parallel_time(
                cfg,
                out_blocks[-1].nnz * cfg.element_cost * machine.compute_penalty,
                threads,
            )
        )
    y = DistSparseVector(a.ncols, grid, out_blocks)
    # component-wise: Breakdown.parallel over the per-locale single-step
    # breakdowns is max() over non-negative seconds, and Breakdown addition
    # over disjoint keys is plain float addition — this direct assembly is
    # bit-identical to the fold it replaces
    total = Breakdown(
        {
            GATHER_STEP: spawn + max(gather_ts),
            MULTIPLY_STEP: max(multiply_ts),
            SCATTER_STEP: max(scatter_ts) + max(finalize_ts),
        }
    )
    if faults is not None:
        # robustness overhead is an explicit component (possibly 0.0), so
        # fault-free runs keep byte-identical breakdowns while fault runs
        # surface their retry bill next to the paper's components
        total = total + Breakdown({RETRY_STEP: max(retry_ts)})
    return y, machine.record("spmspv_dist", total)


def spmspv_dist_1d(
    a: DistSparseMatrix1D,
    x: DistSparseVector,
    machine: Machine,
    *,
    semiring: Semiring = PLUS_TIMES,
    sort: str = "merge",
) -> tuple[DistSparseVector, Breakdown]:
    """SpMSpV on a 1-D row distribution — the 1-D vs 2-D ablation baseline.

    With whole rows per locale the needed slice of ``x`` is locale-local
    (no gather), but every locale produces a *full-width* partial output
    that must be reduced across **all** p locales — a reduce-scatter over
    the entire output index space, which is what makes 1-D lose at scale
    (paper §II-B).
    """
    if x.capacity != a.nrows:
        raise ValueError("x capacity must equal the matrix row count")
    cfg = machine.config
    grid = a.grid
    p = grid.size
    threads = machine.threads_per_locale
    row_dist = a.row_dist
    if not np.array_equal(x.dist.bounds, row_dist.bounds):
        raise ValueError(
            "x blocks must align with the 1-D row bands; distribute x on a "
            "1-row locale grid (LocaleGrid(1, p))"
        )
    spawn = coforall_spawn(cfg, p, machine.locales_per_node)

    multiply_bs: list[Breakdown] = []
    partials: list[SparseVector] = []
    for k in range(p):
        # x's block k covers exactly the row band of locale k only when the
        # two Block1D partitions agree — they do by construction.
        lx = x.blocks[k]
        ly, row_nnzs = _local_spmspv(a.blocks[k], lx, semiring)
        partials.append(ly)
        mb = spmspv_shm_cost(
            machine, row_nnzs=row_nnzs, out_nnz=ly.nnz, ncols=a.ncols, sort=sort
        )
        multiply_bs.append(Breakdown({MULTIPLY_STEP: mb.total}))

    # reduce partial full-width outputs, then scatter blocks to owners.
    # The reduce-scatter moves every partial's stored entries, so its volume
    # is the TOTAL partial nnz — a mean over partials (empty ones included)
    # collapsed under skew, undercharging exactly the imbalanced inputs the
    # 1-D ablation exists to expose.
    itemsize = 16
    total_partial = int(sum(ly.nnz for ly in partials))
    scatter = Breakdown(
        {SCATTER_STEP: reduce_scatter(cfg, p, max(total_partial, 1) * itemsize)}
    )
    idx = np.concatenate([ly.indices for ly in partials])
    vals = np.concatenate([ly.values for ly in partials])
    merged = SparseVector.from_pairs(a.ncols, idx, vals, dup=semiring.add)
    y = DistSparseVector.from_global(merged, grid)
    total = (
        Breakdown({MULTIPLY_STEP: spawn})
        + Breakdown.parallel(multiply_bs)
        + scatter
    )
    return y, machine.record("spmspv_dist_1d", total)
