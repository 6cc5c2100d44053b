"""Breadth-first search in the language of linear algebra.

Paper §III: "Our operations are chosen such that they can be composed to
implement an efficient breadth-first search algorithm, which is often the
'hello world' example of GraphBLAS."  This module is that composition:

* the frontier is a sparse vector;
* one level expansion is one vxm over a Boolean/select semiring;
* already-visited vertices are pruned with a complement mask fused into
  the kernel — the eWiseMult filter of §III-C;
* the pruned frontier is Assign-ed into the visited structure.

Every variant is written once against the backend-agnostic
:class:`~repro.exec.backend.Backend` protocol and runs unchanged on the
shared-memory and the distributed backend: pass
``backend=DistBackend(machine)`` to run on the simulated cluster.  Each
level's kernels are recorded under a ``bfs[iter=k]:`` ledger prefix, so
whole-run traces decompose per iteration exactly like the paper's
Figs 8-9.  :func:`bfs_levels_batch` is the one multi-source
(frontier-matrix) BFS; the query service batches concurrent BFS queries
through it.
"""

from __future__ import annotations

import numpy as np

from ..algebra.semiring import MIN_FIRST, PLUS_PAIR
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from .validate import check_sources

__all__ = [
    "bfs_levels",
    "bfs_levels_dispatch",
    "bfs_levels_incremental",
    "bfs_parents",
    "bfs_levels_batch",
]


def _bfs_expand(
    b: Backend, a, levels: np.ndarray, frontier, level: int, *, mode: str | None
):
    """One level expansion: the next frontier (``levels`` updated in place).

    The pure per-iteration step both the from-scratch core and (via the
    shared machinery) the incremental repair build on — one vxm with the
    visited set fused as a complement mask, then the level write-back.
    """
    with b.iteration("bfs", level):
        # in-kernel visited pruning: only unvisited columns may receive
        frontier = b.vxm(frontier, a, semiring=MIN_FIRST, mask=levels < 0, mode=mode)
    levels[b.to_sparse(frontier).indices] = level
    return frontier


def _bfs_levels_core(b: Backend, a, source: int, *, mode: str | None = None) -> np.ndarray:
    """Level-synchronous BFS against the backend protocol."""
    n = b.shape(a)[0]
    check_sources(n, source)
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = b.vector_from_pairs(n, [source], [float(source)])
    level = 0
    while b.vector_nnz(frontier):
        level += 1
        frontier = _bfs_expand(b, a, levels, frontier, level, mode=mode)
    return levels


def _bfs_parents_core(b: Backend, a, source: int) -> np.ndarray:
    """Parent-pointer BFS against the backend protocol."""
    n = b.shape(a)[0]
    check_sources(n, source)
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source
    frontier = b.vector_from_pairs(n, [source], [float(source)])
    it = 0
    while b.vector_nnz(frontier):
        it += 1
        with b.iteration("bfs_parents", it):
            fresh = b.vxm(frontier, a, semiring=MIN_FIRST, mask=parents < 0)
        fs = b.to_sparse(fresh)
        parents[fs.indices] = fs.values.astype(np.int64)
        # next frontier carries its own (global) ids as values
        frontier = b.vector_from_pairs(n, fs.indices, fs.indices.astype(np.float64))
    return parents


def bfs_levels(
    a: CSRMatrix, source: int, machine=None, *, backend: Backend | None = None
) -> np.ndarray:
    """Level-synchronous BFS; returns per-vertex levels (-1 = unreachable).

    ``a`` is interpreted as an adjacency matrix with edges ``i → j`` stored
    as ``A[i, j]``; for undirected graphs pass a symmetric matrix.  The
    default backend is one shared-memory locale pushing from the frontier;
    pass any :class:`~repro.exec.backend.Backend` to run elsewhere.
    """
    b = backend or ShmBackend(machine)
    return _bfs_levels_core(b, b.matrix(a), source, mode="push")


def bfs_levels_incremental(
    a,
    source: int,
    prev_levels: np.ndarray,
    batch,
    *,
    machine=None,
    backend: Backend | None = None,
) -> np.ndarray:
    """Repair BFS levels after a delta batch (delta-BFS frontier repair).

    ``a`` is the **post-update** adjacency and ``prev_levels`` the levels
    of the pre-update graph.  Inserted edges only shorten paths, so the
    old levels are upper bounds and a monotone (min, first) relaxation
    wave seeded at the improved endpoints converges to the exact new
    levels — typically in a handful of ``bfs_inc[iter=k]`` rounds over a
    tiny frontier, against a full traversal's diameter-many rounds over
    the whole graph.  A deleted edge that may have *carried* a level
    (``prev[u] >= 0 and prev[v] == prev[u] + 1``) can lengthen paths,
    which a monotone wave cannot express — then this falls back to the
    from-scratch core on the current graph.  Either way the result is
    bit-identical to ``bfs_levels`` on the post-update graph (the
    property the streaming differential suite pins).

    ``batch`` is the :class:`~repro.streaming.delta.UpdateBatch` that was
    applied between ``prev_levels`` and ``a``.
    """
    b = backend or ShmBackend(machine)
    am = b.matrix(a)
    n = b.shape(am)[0]
    check_sources(n, source)
    prev = np.asarray(prev_levels, dtype=np.int64)
    if prev.shape != (n,):
        raise ValueError(f"prev_levels shape {prev.shape} != ({n},)")
    du, dv = batch.delete_pairs()
    if du.size and np.any((prev[du] >= 0) & (prev[dv] == prev[du] + 1)):
        return _bfs_levels_core(b, am, source, mode="push")
    levels = prev.copy()
    # relax the inserted edges directly (best candidate per head vertex)
    iu, iv, _ = batch.upsert_triples()
    unset = np.iinfo(np.int64).max
    best = np.full(n, unset, dtype=np.int64)
    ok = levels[iu] >= 0
    np.minimum.at(best, iv[ok], levels[iu[ok]] + 1)
    improved = np.flatnonzero(
        (best != unset) & ((levels < 0) | (best < levels))
    )
    levels[improved] = best[improved]
    frontier = b.vector_from_pairs(
        n, improved, levels[improved].astype(np.float64)
    )
    it = 0
    while b.vector_nnz(frontier):
        it += 1
        with b.iteration("bfs_inc", it):
            # unmasked: already-levelled vertices may still improve
            reached = b.vxm(frontier, am, semiring=MIN_FIRST)
        rs = b.to_sparse(reached)
        cand = rs.values.astype(np.int64) + 1
        idx = rs.indices
        keep = (levels[idx] < 0) | (cand < levels[idx])
        idx, cand = idx[keep], cand[keep]
        levels[idx] = cand
        frontier = b.vector_from_pairs(n, idx, cand.astype(np.float64))
    return levels


def bfs_levels_dispatch(
    a: CSRMatrix,
    source: int,
    machine=None,
    *,
    dispatcher=None,
    pull_threshold: float | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Direction-optimising BFS driven by the cost-model dispatcher.

    Where :func:`~repro.algorithms.bfs_do.bfs_levels_do` hard-codes the
    push→pull switch at ``alpha * n``, this variant asks
    :class:`~repro.ops.dispatch.Dispatcher` to price every kernel variant
    per level from the frontier's sparsity — the CombBLAS 2.0 approach.
    The visited set is fused into the kernel as a complement mask, so the
    pull direction skips visited vertices instead of filtering afterwards.

    Parameters
    ----------
    pull_threshold:
        Optional frontier-density override: when set, the direction flips
        to pull exactly when ``nnz(frontier)/n`` exceeds it (the classic
        alpha parameter) and the cost model only chooses the kernel within
        that direction.  ``None`` (default) lets the model decide both.
    dispatcher:
        A pre-built :class:`~repro.ops.dispatch.Dispatcher` to reuse (e.g.
        with a warm transpose cache); overrides ``pull_threshold``.
    stats:
        Optional dict receiving the dispatcher's decision counts
        (``{"push": k, "pull": m, "push[merge]": ...}``).
    """
    # the transpose is reused every pull level, so price it amortised
    b = ShmBackend(
        machine,
        dispatcher=dispatcher,
        pull_threshold=pull_threshold,
        assume_transpose_amortized=True,
    )
    levels = _bfs_levels_core(b, b.matrix(a), source)
    if stats is not None:
        stats.update(b.dispatcher.stats())
    return levels


def bfs_parents(
    a: CSRMatrix, source: int, machine=None, *, backend: Backend | None = None
) -> np.ndarray:
    """BFS spanning-tree parents (-1 = unreachable, source's parent = itself).

    The frontier carries vertex ids as values; the (min, first) semiring
    propagates the smallest parent id along edges, matching the paper's
    Listing 7 trick of "keep row index as value".
    """
    b = backend or ShmBackend(machine)
    return _bfs_parents_core(b, b.matrix(a), source)


def bfs_levels_batch(
    a: CSRMatrix,
    sources: np.ndarray,
    machine=None,
    *,
    backend: Backend | None = None,
) -> np.ndarray:
    """Multi-source BFS: levels from every source at once.

    The frontier becomes a Boolean *matrix* (one row per source) and each
    expansion is one SpGEMM on the (plus, pair) pattern semiring — one
    kernel invocation and one communication round per level, shared by
    every source, recorded under a ``bfs_batch[iter=k]:`` ledger prefix.
    Returns a ``len(sources) × n`` int64 level array (-1 unreachable).
    BFS is level-synchronous, so row ``i`` is bit-identical to
    ``bfs_levels(a, sources[i])`` however many sources share a level.
    """
    b = backend or ShmBackend(machine)
    am = b.matrix(a)
    n = b.shape(am)[0]
    sources = np.asarray(sources, dtype=np.int64)
    check_sources(n, sources)
    ns = sources.size
    levels = np.full((ns, n), -1, dtype=np.int64)
    if ns == 0:
        return levels
    levels[np.arange(ns), sources] = 0
    frontier = b.matrix(
        CSRMatrix.from_triples(ns, n, np.arange(ns), sources, np.ones(ns))
    )
    level = 0
    while b.matrix_nnz(frontier):
        level += 1
        with b.iteration("bfs_batch", level):
            reached = b.mxm(frontier, am, semiring=PLUS_PAIR)
        g = b.to_csr(reached)
        rows, cols = g.row_indices(), g.colidx
        fresh = levels[rows, cols] < 0  # (source, vertex) pairs not yet levelled
        rows, cols = rows[fresh], cols[fresh]
        levels[rows, cols] = level
        frontier = b.matrix(
            CSRMatrix.from_triples(ns, n, rows, cols, np.ones(rows.size))
        )
    return levels
