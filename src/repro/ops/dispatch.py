"""Cost-model-driven kernel dispatch — automatic direction optimization.

The paper hand-picks its kernel variants: merge vs radix sort (§III-D),
fine-grained vs bulk communication (§IV), push (SpMSpV) vs pull (SpMV)
direction.  CombBLAS 2.0 (Azad et al., 2021) shows the single biggest lever
for BFS-style workloads is choosing among exactly these variants *per
operation* from the input sparsity.  :class:`Dispatcher` is that engine:

* it *estimates* every candidate's simulated cost from cheap sparsity
  statistics (frontier density, selected-row lengths, locale grid shape)
  using the same cost functions the kernels themselves charge — so the
  estimate tracks the eventual bill by construction;
* it *executes* the argmin candidate (results are identical across
  candidates — the dispatcher can only change cost, never values);
* it *records* every decision as a named span in the machine's ledger
  (``dispatch[vxm]:pull`` etc.), so a :class:`~repro.runtime.trace.Trace`
  of an algorithm run shows where each direction switch happened.

Candidates per operation:

=============  ==========================================================
``vxm``        ``push[merge]`` / ``push[radix]`` (SPA SpMSpV, Listing 7),
               ``pull`` (masked dense-direction scan of ``Aᵀ``)
``vxm_dist``   ``fine`` / ``bulk`` / ``agg`` gather and scatter ×
               ``merge`` / ``radix`` sort (Listing 8; ``agg`` is the
               destination-buffered exchange of ``docs/aggregation.md``)
``mxm_dist``   schedule: ``2d[bulk]`` SUMMA, ``3d[c=N][bulk]`` for every
               valid replication factor ``N`` of the grid, and
               ``gathered`` (the allgather fallback — the only candidate
               on non-square grids; see ``docs/spgemm.md``)
``ewisemult``  ``atomic`` counter vs ``prefix``-sum merge (Listing 6),
               decided once per distributed call (``ewisemult_dist``)
=============  ==========================================================
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..runtime.epoch import epoch_of

from ..algebra.functional import BinaryOp
from ..algebra.semiring import PLUS_TIMES, Semiring
from ..distributed.dist_matrix import DistSparseMatrix
from ..distributed.dist_vector import DistDenseVector, DistSparseVector
from ..runtime.aggregation import (
    AGG_DEFAULT,
    AggregationConfig,
    flush_startup,
    gather_agg,
    overlap_exposed,
    two_hop_estimate,
)
from ..runtime.clock import Breakdown
from ..runtime.comm import bulk, fine_grained, gather_parts_fine
from ..runtime.locale import Machine
from ..runtime.tasks import parallel_time, sort_time
from ..runtime.telemetry import registry as _metrics
from ..sparse.csr import CSRMatrix
from ..sparse.vector import SparseVector
from .ewise import ewisemult_dist as _ewisemult_dist
from .ewise import ewisemult_sd_cost
from .mxm_dist import mxm_dist as _mxm_dist
from .mxm_dist import replication_factors
from .spmspv import bulk_scatter_cost, spmspv_dist, spmspv_shm, spmspv_shm_cost
from .spmv import vxm_pull, vxm_pull_cost
from .transpose import transpose_dist

__all__ = [
    "Dispatcher",
    "Decision",
    "PUSH_MERGE",
    "PUSH_RADIX",
    "PULL",
]

#: candidate kernel names for the shared-memory vxm dispatch
PUSH_MERGE = "push[merge]"
PUSH_RADIX = "push[radix]"
PULL = "pull"
PUSH_KERNELS = (PUSH_MERGE, PUSH_RADIX)
VXM_KERNELS = PUSH_KERNELS + (PULL,)


@dataclass(frozen=True)
class Decision:
    """One recorded dispatch decision.

    ``estimates`` maps every considered candidate to its estimated
    simulated seconds; ``chosen`` is the executed one; ``forced`` marks
    decisions where the caller (or a threshold policy) overrode the cost
    model.
    """

    op: str
    chosen: str
    estimates: dict[str, float] = field(default_factory=dict)
    forced: bool = False

    @property
    def direction(self) -> str:
        """``"pull"`` or ``"push"`` (dist/ewise decisions count as push)."""
        return PULL if self.chosen == PULL else "push"


def _expected_out_nnz(ncols: int, flops: float, allowed: int | None = None) -> int:
    """Expected distinct output indices for ``flops`` uniform column draws.

    The standard collision model ``m(1-(1-1/m)^f)``; with a mask only the
    ``allowed`` columns can appear.
    """
    if ncols <= 0 or flops <= 0:
        return 0
    hit_p = -np.expm1(flops * np.log1p(-1.0 / ncols)) if ncols > 1 else 1.0
    live = ncols if allowed is None else allowed
    return int(min(max(live * hit_p, 1.0), min(flops, live)))


class Dispatcher:
    """Per-operation kernel selection for a simulated :class:`Machine`.

    Parameters
    ----------
    machine:
        The simulated machine whose cost model prices the candidates and
        whose ledger receives the decision spans.
    mode:
        Default direction policy for :meth:`vxm`: ``"auto"`` (cost argmin
        over all candidates), ``"push"`` (argmin over push variants),
        ``"pull"``, or an explicit kernel name such as ``"push[merge]"``.
    pull_threshold:
        Optional frontier-density threshold: when set, :meth:`vxm` in
        ``"auto"`` mode switches to the pull direction exactly when
        ``nnz(x)/nrows > pull_threshold`` (the classic direction-optimizing
        BFS alpha parameter), and the cost model only picks the variant
        *within* the chosen direction.  ``None`` (default) lets the cost
        model choose the direction too.
    assume_transpose_amortized:
        When ``Aᵀ`` has not been materialised yet, the pull estimate
        normally includes the one-time transpose-build cost, so one-shot
        calls don't pay for a transpose they can't amortise.  Iterative
        algorithms (BFS) set this to ``True`` to price pull as if the
        transpose were free, since it is reused every level.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        mode: str = "auto",
        pull_threshold: float | None = None,
        assume_transpose_amortized: bool = False,
    ) -> None:
        if mode not in ("auto", "push", "pull") + VXM_KERNELS:
            raise ValueError(f"unknown dispatch mode {mode!r}")
        self.machine = machine
        self.mode = mode
        self.pull_threshold = pull_threshold
        self.assume_transpose_amortized = assume_transpose_amortized
        self.decisions: list[Decision] = []
        self._transposes: dict[int, tuple] = {}

    # -- transpose cache ----------------------------------------------------

    def _transpose_build_cost(self, a: CSRMatrix) -> float:
        """Estimated one-time cost of materialising ``Aᵀ`` (two counting
        passes plus a stable scatter of (index, value) pairs)."""
        cfg = self.machine.config
        return parallel_time(
            cfg,
            4.0 * a.nnz * cfg.stream_cost * self.machine.compute_penalty,
            self.machine.threads_per_locale,
        )

    def _cached_transpose(self, a: CSRMatrix | DistSparseMatrix):
        """The cached ``Aᵀ``, or ``None`` when it was never built or
        either orientation has been mutated in place since."""
        hit = self._transposes.get(id(a))
        if hit is None:
            return None
        ref, at, epoch_a, epoch_at = hit
        if at is a:  # a is the cached transpose: answer its weak source
            at, epoch_a, epoch_at = ref(), epoch_at, epoch_a
        elif ref() is not a:
            return None
        if at is None or epoch_a != epoch_of(a) or epoch_at != epoch_of(at):
            return None
        return at

    def _drop_pair(self, ref: weakref.ref, keys) -> None:
        """Remove the pair anchored by ``ref`` from those of ``keys``
        that still hold it."""
        for key in keys:
            if self._transposes.get(key, (None,))[0] is ref:
                del self._transposes[key]

    def transpose_of(
        self, a: CSRMatrix | DistSparseMatrix
    ) -> CSRMatrix | DistSparseMatrix:
        """``Aᵀ`` of a CSR or distributed matrix, built once per matrix
        *epoch* and cached — the one transpose cache of the library.

        A build stores one entry, ``(weakref(A), Aᵀ, epochs)``, under the
        ids of both orientations, so ``transpose_of(transpose_of(a)) is a``
        while ``a`` lives.  ``A`` is held weakly and the reference's
        callback drops the pair when ``A`` dies; the callback holds the
        dispatcher weakly, so neither outlives the other.  An in-place
        mutation of either orientation (a streaming delta batch bumping
        its epoch) invalidates the pair.  Building here charges nothing
        beyond what the distributed transpose kernel records itself; the
        pull path bills its build through :meth:`prepare_pull`.
        """
        at = self._cached_transpose(a)
        if at is not None:
            return at
        stale = self._transposes.get(id(a))
        if stale is not None:
            self._drop_pair(stale[0], (id(stale[0]()), id(stale[1])))
        if isinstance(a, DistSparseMatrix):
            at, _ = transpose_dist(a, self.machine)
        else:
            at = a.transposed()
        disp, keys = weakref.ref(self), (id(a), id(at))

        def drop(ref):  # holds the dispatcher weakly, never its cache
            if (d := disp()) is not None:
                d._drop_pair(ref, keys)

        ref = weakref.ref(a, drop)
        self._transposes[id(a)] = self._transposes[id(at)] = (
            ref, at, epoch_of(a), epoch_of(at)
        )
        return at

    def prepare_pull(self, a: CSRMatrix) -> CSRMatrix:
        """``Aᵀ`` for the pull kernel; a cache miss is billed as a
        one-time ``dispatch[transpose]`` build span."""
        if self._cached_transpose(a) is None:
            self.machine.record(
                "dispatch[transpose]",
                Breakdown({"build": self._transpose_build_cost(a)}),
            )
        return self.transpose_of(a)

    # -- decision bookkeeping -----------------------------------------------

    def _decide(self, op: str, chosen: str, estimates: dict[str, float], *, forced: bool) -> Decision:
        d = Decision(op=op, chosen=chosen, estimates=dict(estimates), forced=forced)
        self.decisions.append(d)
        _metrics.counter("dispatch.decisions").inc(1, op=op, choice=chosen, forced=forced)
        # a real dispatch costs a handful of comparisons; charging it makes
        # every decision visible as a `dispatch[op]:<choice>` span in Trace
        cfg = self.machine.config
        cost = cfg.compare_cost * max(len(estimates), 1) + cfg.stream_cost
        self.machine.record(f"dispatch[{op}]", Breakdown({chosen: cost}))
        return d

    def stats(self) -> dict[str, int]:
        """Decision counts by chosen candidate (plus push/pull totals)."""
        out: dict[str, int] = {}
        for d in self.decisions:
            if d.op == "vxm":
                out[d.direction] = out.get(d.direction, 0) + 1
                if d.chosen != d.direction:  # pull IS its own direction
                    out[d.chosen] = out.get(d.chosen, 0) + 1
            else:
                out[d.chosen] = out.get(d.chosen, 0) + 1
        return out

    # -- shared-memory vxm ---------------------------------------------------

    def estimate_vxm(
        self,
        a: CSRMatrix,
        x: SparseVector,
        *,
        mask: np.ndarray | None = None,
        complement: bool = False,
    ) -> dict[str, float]:
        """Estimated simulated seconds for every ``y ← x A`` candidate.

        Uses only O(nnz(x) + ncols) statistics: the exact lengths of the
        rows the frontier selects, the collision-model output size, and —
        for pull — the exact scanned-row lengths of ``Aᵀ`` when it is
        already materialised.
        """
        machine = self.machine
        ncols = a.ncols
        row_nnzs = np.diff(a.rowptr)[x.indices] if x.nnz else np.empty(0, np.int64)
        flops = int(row_nnzs.sum())
        if mask is not None:
            allowed_mask = np.asarray(mask, dtype=bool)
            if complement:
                allowed_mask = ~allowed_mask
            allowed = int(allowed_mask.sum())
            flops_eff = flops * (allowed / ncols) if ncols else 0.0
        else:
            allowed_mask = None
            allowed = None
            flops_eff = float(flops)
        out_est = _expected_out_nnz(ncols, flops_eff, allowed)

        est: dict[str, float] = {}
        for name, sort in ((PUSH_MERGE, "merge"), (PUSH_RADIX, "radix")):
            est[name] = spmspv_shm_cost(
                machine, row_nnzs=row_nnzs, out_nnz=out_est, ncols=ncols, sort=sort
            ).total

        at = self._cached_transpose(a)
        if at is not None:
            if allowed_mask is not None:
                scan_nnzs = np.diff(at.rowptr)[allowed_mask]
            else:
                scan_nnzs = np.diff(at.rowptr)
            build = 0.0
        else:
            # Aᵀ row lengths unknown without building it: assume the mask
            # keeps a proportional share of the nonzeros, evenly spread
            frac = 1.0 if allowed is None else (allowed / ncols if ncols else 0.0)
            n_scan = ncols if allowed is None else allowed
            mean = a.nnz * frac / n_scan if n_scan else 0.0
            scan_nnzs = np.full(max(n_scan, 0), mean)
            build = 0.0 if self.assume_transpose_amortized else self._transpose_build_cost(a)
        est[PULL] = build + vxm_pull_cost(
            machine,
            row_nnzs=scan_nnzs,
            kept=int(flops_eff),
            out_nnz=out_est,
            x_capacity=x.capacity,
            x_nnz=x.nnz,
        ).total
        return est

    def vxm(
        self,
        a: CSRMatrix,
        x: SparseVector,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        complement: bool = False,
        accum=None,
        out: SparseVector | None = None,
        desc=None,
        mode: str | None = None,
    ) -> tuple[SparseVector, Breakdown]:
        """``y ← x A`` through the cheapest kernel.

        Every candidate produces bit-identical results (the property suite
        pins this against the scipy oracle); only the simulated cost —
        and therefore the ledger — depends on the choice.

        ``accum``/``out``/``desc`` apply the GraphBLAS output step
        ``out⟨mask, replace⟩ ⊕= y`` after the kernel
        (:mod:`repro.exec.descriptor`); ``desc.complement`` folds into
        ``complement``.  The dispatch decision is unaffected.
        """
        replace = False
        if desc is not None:
            complement = complement or bool(getattr(desc, "complement", False))
            replace = bool(getattr(desc, "replace", False))
        mode = self.mode if mode is None else mode
        if mode not in ("auto", "push", "pull") + VXM_KERNELS:
            raise ValueError(f"unknown dispatch mode {mode!r}")
        estimates = self.estimate_vxm(a, x, mask=mask, complement=complement)
        forced = mode != "auto"
        if mode in VXM_KERNELS:
            chosen = mode
        elif mode == "pull":
            chosen = PULL
        elif mode == "push":
            chosen = min(PUSH_KERNELS, key=estimates.__getitem__)
        else:  # auto
            if self.pull_threshold is not None:
                density = x.nnz / a.nrows if a.nrows else 0.0
                pool = (PULL,) if density > self.pull_threshold else PUSH_KERNELS
                chosen = min(pool, key=estimates.__getitem__)
                forced = True
            else:
                chosen = min(VXM_KERNELS, key=estimates.__getitem__)
        self._decide("vxm", chosen, estimates, forced=forced)
        if chosen == PULL:
            at = self.prepare_pull(a)
            y, b = vxm_pull(
                at, x, self.machine, semiring=semiring, mask=mask, complement=complement
            )
        else:
            y, b = spmspv_shm(
                a,
                x,
                self.machine,
                semiring=semiring,
                sort="radix" if chosen == PUSH_RADIX else "merge",
                mask=mask,
                complement=complement,
            )
        if accum is None and out is None and not replace:
            return y, b
        from ..exec.descriptor import merge_vector

        return (
            merge_vector(
                y, out, mask=mask, complement=complement, accum=accum, replace=replace
            ),
            b,
        )

    # -- distributed vxm ----------------------------------------------------

    def estimate_vxm_dist(
        self,
        a: DistSparseMatrix,
        x: DistSparseVector,
        *,
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> dict[str, float]:
        """Estimated seconds for each communication/sort candidate of the
        distributed SpMSpV (Listing 8).

        Gather estimates are *exact* — they depend only on the known block
        nnz counts — so auto never loses to a forced mode there; scatter
        and sort use the collision-model output estimate.  The ``agg``
        candidates price the destination-buffered exchange: flush-batched
        streams, two-hop routing for the scatter, and (for the scatter) the
        overlap credit against the estimated local multiply.
        """
        machine = self.machine
        cfg = machine.config
        grid = a.grid
        pr, pc = grid.rows, grid.cols
        threads = machine.threads_per_locale
        local = machine.oversubscribed
        itemsize = 16

        gather_fine = []
        gather_bulk = []
        gather_agg_est = []
        for loc in grid:
            team = grid.row_team(loc.row)
            remote = [x.blocks[t.id].nnz for t in team if t.id != loc.id]
            own = bulk(cfg, x.blocks[loc.id].nnz * itemsize, local=True)
            gather_fine.append(
                own + gather_parts_fine(
                    cfg, remote, threads=threads, concurrent_peers=pc, local=local
                )
            )
            gather_bulk.append(
                own + sum(bulk(cfg, s * itemsize, local=local) for s in remote)
            )
            gather_agg_est.append(own + gather_agg(cfg, remote, agg=agg, local=local))

        # output-size estimate per locale column block
        flops = x.nnz * (a.nnz / max(a.nrows, 1))
        ncols_block = a.ncols / max(pc, 1)
        out_per_locale = _expected_out_nnz(
            max(int(ncols_block), 1), flops / max(grid.size, 1)
        )
        remote_elems = int(out_per_locale * (pr - 1) / max(pr, 1))
        scatter_fine = fine_grained(
            cfg, remote_elems, threads=threads, concurrent_peers=pr, local=local
        )
        scatter_bulk = bulk_scatter_cost(cfg, pr, remote_elems, itemsize)
        scatter_agg = two_hop_estimate(cfg, grid, remote_elems, agg=agg, local=local)
        if agg.overlap and scatter_agg > 0.0:
            # the exchange streams behind the local multiply: credit the
            # estimate with the same pipeline the kernel charges
            est_multiply = parallel_time(
                cfg,
                (flops / max(grid.size, 1))
                * cfg.element_cost
                * machine.compute_penalty,
                threads,
            )
            scatter_agg = overlap_exposed(
                scatter_agg,
                est_multiply,
                flush_startup(cfg, remote_elems, agg=agg, local=local),
            )
        key_bits = max(int(max(ncols_block, 2) - 1).bit_length(), 1)
        sort_est = {
            s: sort_time(cfg, out_per_locale, threads, algorithm=s, key_bits=key_bits)
            for s in ("merge", "radix")
        }
        return {
            "gather:fine": max(gather_fine),
            "gather:bulk": max(gather_bulk),
            "gather:agg": max(gather_agg_est),
            "scatter:fine": scatter_fine,
            "scatter:bulk": scatter_bulk,
            "scatter:agg": scatter_agg,
            "sort:merge": sort_est["merge"],
            "sort:radix": sort_est["radix"],
        }

    def vxm_dist(
        self,
        a: DistSparseMatrix,
        x: DistSparseVector,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: np.ndarray | None = None,
        complement: bool = False,
        accum=None,
        out: DistSparseVector | None = None,
        desc=None,
        gather_mode: str = "auto",
        scatter_mode: str = "auto",
        sort: str = "auto",
        agg: AggregationConfig = AGG_DEFAULT,
    ) -> tuple[DistSparseVector, Breakdown]:
        """Distributed SpMSpV with per-call communication/sort dispatch.

        ``"auto"`` resolves each axis independently from the estimates —
        gather and scatter over ``fine``/``bulk``/``agg``, sort over
        ``merge``/``radix``; an explicit mode forces it.  As in
        :meth:`vxm`, ``accum``/``out``/``desc`` run the GraphBLAS output
        step blockwise after the kernel.
        """
        replace = False
        if desc is not None:
            complement = complement or bool(getattr(desc, "complement", False))
            replace = bool(getattr(desc, "replace", False))
        est = self.estimate_vxm_dist(a, x, agg=agg)
        forced = "auto" not in (gather_mode, scatter_mode, sort)
        if gather_mode == "auto":
            gather_mode = min(
                ("fine", "bulk", "agg"), key=lambda m: est[f"gather:{m}"]
            )
        if scatter_mode == "auto":
            scatter_mode = min(
                ("fine", "bulk", "agg"), key=lambda m: est[f"scatter:{m}"]
            )
        if sort == "auto":
            sort = "merge" if est["sort:merge"] <= est["sort:radix"] else "radix"
        self._decide(
            "vxm_dist",
            f"gather:{gather_mode}+scatter:{scatter_mode}+sort:{sort}",
            est,
            forced=forced,
        )
        y, b = spmspv_dist(
            a,
            x,
            self.machine,
            semiring=semiring,
            sort=sort,
            gather_mode=gather_mode,
            scatter_mode=scatter_mode,
            mask=mask,
            complement=complement,
            agg=agg,
        )
        if accum is None and out is None and not replace:
            return y, b
        from ..exec.descriptor import merge_dist_vector

        return (
            merge_dist_vector(
                y, out, mask=mask, complement=complement, accum=accum, replace=replace
            ),
            b,
        )

    # -- distributed mxm ----------------------------------------------------

    def estimate_mxm_dist(
        self,
        a: DistSparseMatrix,
        b: DistSparseMatrix,
        *,
        mask: DistSparseMatrix | None = None,
        fused: bool = True,
    ) -> dict[str, float]:
        """Estimated end-to-end seconds for every distributed-SpGEMM
        schedule the machine can run (see ``docs/spgemm.md``):

        * ``2d[bulk]`` — the ``q``-stage sparse SUMMA with bulk block
          broadcasts;
        * ``3d[c=N][bulk]`` — the communication-avoiding replicated
          schedule for every valid factor ``N = k²``, ``k | q``:
          replicate → ``⌈(q/k)/N⌉`` coarse slots → layer reduce-scatter;
        * ``gathered`` — allgather both operands, one shared-memory
          multiply (compute **not** divided by ``p``), redistribute.  On a
          non-square grid it is the *only* candidate.

        Unlike the SpMSpV estimates these include the compute terms —
        ``gathered`` trades all communication structure for serial flops,
        so comparing communication alone would be meaningless.  Mean-field
        statistics throughout: average block populations, the collision
        model for product sizes, and (with a fused mask) the mask's
        position density scaling every merge/reduce volume.
        """
        machine = self.machine
        cfg = machine.config
        grid = a.grid
        p = max(grid.size, 1)
        local = machine.oversubscribed
        threads = machine.threads_per_locale
        pen = machine.compute_penalty
        itemsize = 16
        ec = cfg.element_cost

        flops_total = a.nnz * (b.nnz / max(b.nrows, 1))
        # fused structural mask: a stage product entry survives the prune
        # with probability ≈ the mask's position density
        mask_frac = 1.0
        if mask is not None and fused:
            mask_frac = min(mask.nnz / max(a.nrows * b.ncols, 1), 1.0)

        # gathered: collect A and B, multiply once (serial in p — the
        # whole point of pricing compute), scatter the product
        rows = max(a.nrows, 1)
        out_frac = mask_frac if mask is not None else 1.0
        out_total = rows * _expected_out_nnz(
            max(b.ncols, 1), flops_total / rows
        ) * out_frac

        def gather_cost(nnz: float) -> float:
            return p * bulk(cfg, (nnz / p) * itemsize, local=local)

        est: dict[str, float] = {
            "gathered": gather_cost(a.nnz + b.nnz)
            + gather_cost(out_total)
            + parallel_time(cfg, flops_total * ec * pen, threads)
        }
        if grid.rows != grid.cols:
            return est

        # shared per-fine-stage statistics of the square-grid schedules
        q = grid.rows
        avg_a = a.nnz / p
        avg_b = b.nnz / p
        m_block = max((a.nrows / q) * (b.ncols / q), 1.0)

        # skew-aware compute: the *exact* per-fine-stage flops tensor
        # (q³ ≤ 512 block pairs, each an O(block-nnz) histogram lookup —
        # far cheaper than a stage).  A stage's billed multiply is the
        # *max* over its concurrent locales, which on skewed (R-MAT-like)
        # inputs is a multiple of the mean; worse, heavy columns of A hit
        # heavy rows of B (degree correlation), so even max-of-averages is
        # several-fold low.  The 3-D schedules concentrate a whole coarse
        # cell's flops on one locale, so mean-field statistics
        # systematically underprice them exactly where replication looks
        # most attractive.
        from .mxm import flops as _flops

        fine_flops = np.array(
            [
                [[_flops(a.block(i, s), b.block(s, j)) for j in range(q)]
                 for s in range(q)]
                for i in range(q)
            ],
            dtype=float,
        )  # [i, s, j]
        flops_total = float(fine_flops.sum())
        flops_fine = flops_total / (q * p)
        prod_fine = _expected_out_nnz(int(m_block), flops_fine) * mask_frac

        def stage_mult(s: int) -> float:
            return parallel_time(
                cfg, float(fine_flops[:, s, :].max()) * ec * pen, threads
            )

        def stage_merge(s: int) -> float:
            prod = _expected_out_nnz(
                int(m_block), float(fine_flops[:, s, :].max())
            ) * mask_frac
            return parallel_time(cfg, prod * ec * pen, threads)

        mult_2d = sum(stage_mult(s) for s in range(q))
        merge_2d = sum(stage_merge(s) for s in range(q))

        est["2d[bulk]"] = (
            q
            * (
                bulk(cfg, avg_a * itemsize, local=local)
                + bulk(cfg, avg_b * itemsize, local=local)
            )
            + mult_2d
            + merge_2d
        )

        for c in replication_factors(q):
            k = math.isqrt(c)
            q2 = q // k
            slots = max(-(-q2 // c), 1)
            # assemble the layer's coarse-cell copy: everything in the k×k
            # region but the locale's own fine block, for both operands
            repl = bulk(
                cfg, (c - 1) * (avg_a + avg_b) * itemsize, local=local
            )
            coarse_a, coarse_b = c * avg_a, c * avg_b
            # a coarse stage covers k fine stages on k² fine cells, all on
            # one locale — billed at the heaviest coarse-cell stage work
            cell_flops = fine_flops.reshape(q2, k, q2, k, q2, k).sum(
                axis=(1, 3, 5)
            )  # [I, R, J]
            w_max = float(cell_flops.max())
            mult_slot = parallel_time(cfg, w_max * ec * pen, threads)
            prod_slot = _expected_out_nnz(int(k * k * m_block), w_max) * mask_frac
            merge_slot = parallel_time(cfg, prod_slot * ec * pen, threads)
            compute = slots * (mult_slot + merge_slot)
            red_elems = (c - 1) * slots * (k ** 3) * prod_fine
            fold = parallel_time(cfg, red_elems * ec * pen, threads)
            comm_bulk = slots * (
                bulk(cfg, coarse_a * itemsize, local=local)
                + bulk(cfg, coarse_b * itemsize, local=local)
            ) + bulk(cfg, red_elems * itemsize, local=local)
            est[f"3d[c={c}][bulk]"] = repl + comm_bulk + compute + fold
        return est

    def mxm_dist(
        self,
        a: DistSparseMatrix,
        b: DistSparseMatrix,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: DistSparseMatrix | None = None,
        complement: bool = False,
        mask_mode: str = "fused",
        variant: str = "auto",
        layers: int | None = None,
        accum=None,
        out: DistSparseMatrix | None = None,
        desc=None,
    ) -> tuple[DistSparseMatrix, Breakdown]:
        """Distributed SpGEMM through the cheapest schedule, recorded as a
        ``dispatch[mxm_dist]`` span.

        The candidates are ``2d[bulk]``, ``3d[c=N][bulk]`` for every valid
        replication factor of the grid, and ``gathered``.  ``variant``
        (``"auto"``/``"2d"``/``"3d"``/``"gathered"``) forces the schedule;
        ``layers`` pins the 3-D replication factor.

        On square grids the SUMMA family is bit-identical by construction
        (shared value plane), so auto is free to switch among 2-D and 3-D;
        ``gathered`` reduces partial products in a different order (last-
        bit float drift), so auto only selects it on non-square grids where
        it is the sole candidate — forcing ``variant="gathered"`` opts in
        explicitly.  Its estimate is still priced everywhere for
        inspection.

        ``mask`` (aligned distributed matrix) restricts the product
        structurally; ``mask_mode="fused"`` prunes inside every stage
        merge, ``"post"`` filters after the last stage (bit-identical,
        dearer — kept for ledger comparison).  ``accum``/``out``/``desc``
        run the GraphBLAS output step blockwise afterwards.
        """
        replace = False
        if desc is not None:
            complement = complement or bool(getattr(desc, "complement", False))
            replace = bool(getattr(desc, "replace", False))
        if variant not in ("auto", "2d", "3d", "gathered"):
            raise ValueError(f"unknown variant {variant!r}")
        if mask_mode not in ("fused", "post"):
            raise ValueError(f"unknown mask_mode {mask_mode!r}")
        square = a.grid.rows == a.grid.cols
        if not square and variant in ("2d", "3d"):
            raise ValueError("sparse SUMMA requires a square locale grid")
        fused = mask is not None and mask_mode == "fused"
        est = self.estimate_mxm_dist(a, b, mask=mask, fused=fused)
        forced = variant != "auto"
        if not square or variant == "gathered":
            chosen = "gathered"
        else:
            pool = [name for name in est if name != "gathered"]
            if variant != "auto":
                pool = [name for name in pool if name.startswith(variant)]
            if variant == "3d" and layers is not None:
                pool = [name for name in pool if f"[c={int(layers)}]" in name]
                if not pool:
                    raise ValueError(
                        f"no 3d candidate with layers={layers}; valid factors: "
                        f"{replication_factors(a.grid.rows)}"
                    )
            chosen = min(pool, key=est.__getitem__)
        self._decide("mxm_dist", chosen, est, forced=forced)
        if chosen == "gathered":
            from .matrix_dist import mxm_gathered

            c, bd = mxm_gathered(
                a,
                b,
                self.machine,
                semiring=semiring,
                mask=mask,
                complement=complement,
            )
        else:
            if chosen.startswith("3d["):
                run_variant, run_layers = "3d", int(chosen[5 : chosen.index("]")])
            else:
                run_variant, run_layers = "2d", 1
            c, bd = _mxm_dist(
                a,
                b,
                self.machine,
                semiring=semiring,
                mask=mask,
                complement=complement,
                mask_mode=mask_mode,
                variant=run_variant,
                layers=run_layers,
            )
        if accum is None and out is None and not replace:
            return c, bd
        from ..exec.descriptor import merge_dist_matrix

        return (
            merge_dist_matrix(
                c, out, mask=mask, complement=complement, accum=accum, replace=replace
            ),
            bd,
        )

    # -- elementwise --------------------------------------------------------

    def ewisemult_dist(
        self,
        x: DistSparseVector,
        y: DistDenseVector,
        op: BinaryOp,
        *,
        method: str = "auto",
    ) -> tuple[DistSparseVector, Breakdown]:
        """Distributed sparse×dense eWiseMult: the atomic-vs-prefix choice
        is made once from the heaviest block (the makespan locale), since
        every locale runs the same collection method."""
        worst = max((blk.nnz for blk in x.blocks), default=0)
        est = {
            m: ewisemult_sd_cost(self.machine, worst, worst, method=m).total
            for m in ("atomic", "prefix")
        }
        forced = method != "auto"
        if method == "auto":
            method = min(est, key=est.__getitem__)
        self._decide("ewisemult_dist", method, est, forced=forced)
        return _ewisemult_dist(x, y, op, self.machine, method=method)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Dispatcher(mode={self.mode!r}, pull_threshold={self.pull_threshold}, "
            f"decisions={len(self.decisions)})"
        )
