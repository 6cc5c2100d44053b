"""Delta-stepping SSSP — bucketed relaxation with sparse frontiers.

Bellman-Ford (:mod:`repro.algorithms.sssp`) relaxes every vertex every
round; delta-stepping (Meyer & Sanders) processes vertices in distance
buckets of width Δ, relaxing only a sparse frontier per step — the SSSP
analogue of BFS's frontier optimisation and the algorithm LAGraph ships.
Each inner step is one SpMSpV on the (min, +) tropical semiring followed by
an improvement mask; exactly the paper's operation repertoire, expressed
against the backend protocol (min is associative — backends agree
bit-exactly).
"""

from __future__ import annotations

import numpy as np

from ..algebra.semiring import MIN_PLUS
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from .validate import check_sources

__all__ = ["delta_stepping"]


def _delta_stepping_core(b: Backend, a, source: int, *, delta: float) -> np.ndarray:
    n = b.shape(a)[0]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    bucket = 0
    step = 0
    settled = np.zeros(n, dtype=bool)
    while True:
        lo, hi = bucket * delta, (bucket + 1) * delta
        in_bucket = (~settled) & (dist >= lo) & (dist < hi)
        if not in_bucket.any():
            remaining = (~settled) & np.isfinite(dist)
            if not remaining.any():
                break
            bucket = int(dist[remaining].min() // delta)
            continue
        # repeatedly relax inside the bucket until no in-bucket improvement
        while in_bucket.any():
            idx = np.flatnonzero(in_bucket).astype(np.int64)
            frontier = b.vector_from_pairs(n, idx, dist[idx])
            step += 1
            with b.iteration("delta_stepping", step):
                relaxed = b.vxm(frontier, a, semiring=MIN_PLUS)
            rs = b.to_sparse(relaxed)
            settled |= in_bucket
            improved = np.zeros(n, dtype=bool)
            if rs.nnz:
                better = rs.values < dist[rs.indices]
                tgt = rs.indices[better]
                dist[tgt] = rs.values[better]
                improved[tgt] = True
                settled[tgt] = False
            in_bucket = improved & (dist >= lo) & (dist < hi) & ~settled
        bucket += 1
    return dist


def delta_stepping(
    a: CSRMatrix,
    source: int,
    *,
    delta: float | None = None,
    machine=None,
    backend: Backend | None = None,
) -> np.ndarray:
    """Distances from ``source`` over non-negative edge weights.

    Produces the same result as :func:`repro.algorithms.sssp.sssp` (the
    test-suite asserts it) while relaxing far fewer entries on graphs with
    spread-out distances.  ``delta`` defaults to the mean edge weight.

    Raises ``ValueError`` on negative edge weights (use Bellman-Ford).
    """
    if a.nrows != a.ncols:
        raise ValueError("adjacency matrix must be square")
    check_sources(a.nrows, source)
    if a.nnz and a.values.min() < 0:
        raise ValueError("delta-stepping requires non-negative weights")
    if delta is None:
        delta = float(a.values.mean()) if a.nnz else 1.0
    if delta <= 0:
        delta = 1.0
    b = backend or ShmBackend(machine)
    return _delta_stepping_core(b, b.matrix(a), source, delta=delta)
