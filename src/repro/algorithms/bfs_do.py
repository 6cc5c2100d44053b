"""Direction-optimising BFS — the push/pull refinement of the hello world.

Beamer's direction-optimising BFS in GraphBLAS terms (Yang et al.): while
the frontier is small, *push* — one SpMSpV from the frontier (exactly the
paper's kernel) with the visited set fused as a complement mask.  When the
frontier grows past a threshold fraction of the graph, *pull* — every
unvisited vertex checks whether any in-neighbour is on the frontier, a
Boolean SpMV over the transpose, which touches each unvisited vertex once
instead of every frontier edge.

The result is identical to :func:`repro.algorithms.bfs.bfs_levels`; the
interest is the operation mix (tests assert both identity and that pull
actually engages on dense-frontier graphs).  Written against the backend
protocol, so the same push/pull dance runs distributed: push is the
masked distributed SpMSpV, pull the distributed Boolean SpMV.
"""

from __future__ import annotations

import numpy as np

from ..algebra.semiring import LOR_LAND, MIN_FIRST
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from .validate import check_sources

__all__ = ["bfs_levels_do"]


def _bfs_levels_do_core(
    b: Backend, a, source: int, *, alpha: float, stats: dict | None
) -> np.ndarray:
    n = b.shape(a)[0]
    check_sources(n, source)
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    idx = np.array([source], dtype=np.int64)
    nnz = 1
    pushes = pulls = 0
    level = 0
    while nnz:
        level += 1
        if nnz <= alpha * n:
            pushes += 1
            frontier = b.vector_from_pairs(n, idx, np.ones(idx.size))
            with b.iteration("bfs_do", level):
                reached = b.vxm(
                    frontier, a, semiring=MIN_FIRST, mask=levels < 0, mode="push"
                )
            idx = b.to_sparse(reached).indices
        else:
            pulls += 1
            on_frontier = np.zeros(n)
            on_frontier[idx] = 1.0
            with b.iteration("bfs_do", level):
                # pull: unvisited v joins if any in-neighbour is on the frontier
                hit = b.mxv_dense(b.transpose(a), on_frontier, semiring=LOR_LAND)
            fresh = np.asarray(hit, dtype=bool) & (levels < 0)
            idx = np.flatnonzero(fresh).astype(np.int64)
        levels[idx] = level
        nnz = idx.size
    if stats is not None:
        stats["push"] = pushes
        stats["pull"] = pulls
    return levels


def bfs_levels_do(
    a: CSRMatrix,
    source: int,
    machine=None,
    *,
    alpha: float = 0.05,
    stats: dict | None = None,
    backend: Backend | None = None,
) -> np.ndarray:
    """Direction-optimising level-synchronous BFS.

    Parameters
    ----------
    a:
        Adjacency matrix (edge ``i → j`` at ``A[i, j]``); symmetric input
        for undirected graphs.  The pull phase uses ``Aᵀ`` (in-neighbours),
        built once through the backend's transpose cache on first need.
    alpha:
        Pull engages when ``nnz(frontier) > alpha * n``.
    stats:
        Optional dict that receives ``{"push": k, "pull": m}`` counts.
    """
    b = backend or ShmBackend(machine)
    return _bfs_levels_do_core(b, b.matrix(a), source, alpha=alpha, stats=stats)
