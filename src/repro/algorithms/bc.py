"""Betweenness centrality — the algebraic Brandes algorithm.

The canonical "beyond BFS" GraphBLAS showcase (Kepner & Gilbert ch. 6):
one forward sweep of SpMV-like frontier expansions counts shortest paths
per depth, one backward sweep accumulates dependencies.  This is the
batched variant: all sources in ``sources`` advance together, so the hot
loop is matrix-matrix rather than matrix-vector — the shape distributed
implementations prefer.  The sweeps run on replicated dense state pulled
through the backend bridge, so the same code serves both backends.
"""

from __future__ import annotations

import numpy as np

from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from .validate import check_sources

__all__ = ["betweenness_centrality"]


def _betweenness_core(b: Backend, a, sources: np.ndarray) -> np.ndarray:
    if b.shape(a)[0] != b.shape(a)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(a)[0]
    ns = sources.size
    if ns == 0:
        return np.zeros(n)
    dense = b.to_csr(a).to_dense() != 0  # pattern only, batched dense sweep

    # forward: sigma[d][s, v] = #shortest paths of length d from source s to v
    sigma_total = np.zeros((ns, n))
    sigma_total[np.arange(ns), sources] = 1.0
    frontier = np.zeros((ns, n))
    frontier[np.arange(ns), sources] = 1.0
    visited = frontier > 0
    frontiers: list[np.ndarray] = [frontier.copy()]
    while True:
        # expand: paths to v via any in-neighbour u on the frontier
        nxt = frontier @ dense
        nxt[visited] = 0.0
        if not nxt.any():
            break
        visited |= nxt > 0
        sigma_total += nxt
        frontiers.append(nxt.copy())
        frontier = nxt

    # backward: Brandes dependency accumulation, batched over sources.
    # For edge v->w with w one level deeper:
    #   delta[s, v] += sigma[s, v] / sigma[s, w] * (1 + delta[s, w])
    delta = np.zeros((ns, n))
    inv_sigma = np.zeros_like(sigma_total)
    nz = sigma_total > 0
    inv_sigma[nz] = 1.0 / sigma_total[nz]
    for d in range(len(frontiers) - 1, 0, -1):
        on_frontier = frontiers[d] > 0
        t = np.where(on_frontier, (1.0 + delta) * inv_sigma, 0.0)
        contrib = t @ dense.T  # sum over out-edges v->w of t[s, w]
        prev = frontiers[d - 1] > 0
        delta += np.where(prev, sigma_total * contrib, 0.0)

    # endpoints are excluded: a source accumulates no dependency for itself
    delta[np.arange(ns), sources] = 0.0
    bc = delta.sum(axis=0)
    if ns < n:
        bc *= n / ns
    return bc


def betweenness_centrality(
    a: CSRMatrix,
    sources: np.ndarray | None = None,
    *,
    backend: Backend | None = None,
) -> np.ndarray:
    """Betweenness centrality of every vertex (directed; unweighted paths).

    ``sources`` selects the source batch (all vertices by default —
    exact BC; a subset gives the usual sampled approximation, scaled by
    ``n / len(sources)``).
    """
    b = backend or ShmBackend()
    am = b.matrix(a)
    n = b.shape(am)[0]
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        check_sources(n, sources)
    return _betweenness_core(b, am, sources)
