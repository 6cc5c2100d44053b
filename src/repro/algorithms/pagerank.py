"""PageRank — power iteration on the (plus, times) semiring.

The canonical "arbitrary semiring pays off" example: the inner loop is one
``vxm`` on PLUS_TIMES over the column-stochastic adjacency, plus the
teleport correction.  Dangling vertices (no out-edges) redistribute their
mass uniformly, matching networkx's convention so the test-suite can use it
as an oracle.

One backend-agnostic core serves both flavours: row normalisation is a
row reduction + row scaling on the backend, and each power iteration is
one dense-vector product recorded under a ``pagerank[iter=k]:`` ledger
prefix.  Floating-point note: the distributed backend reduces and
multiplies blockwise, so its last-bit rounding can differ from shared
memory (results agree to ~1e-9, not bit-exactly — the usual distributed
float-sum caveat, see ``docs/frontend.md``).
"""

from __future__ import annotations

import numpy as np

from ..algebra.semiring import PLUS_TIMES
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix

__all__ = ["pagerank", "pagerank_incremental"]


def _pagerank_core(
    b: Backend,
    a,
    *,
    damping: float,
    tol: float,
    max_iter: int,
    rank0: np.ndarray | None = None,
) -> np.ndarray:
    if b.shape(a)[0] != b.shape(a)[1]:
        raise ValueError("adjacency matrix must be square")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    n = b.shape(a)[0]
    out_degree = b.reduce_rows_dense(a)  # weighted out-degree
    dangling = out_degree == 0
    # row-normalise A's values in one row-scaling pass
    inv_deg = np.zeros(n)
    inv_deg[~dangling] = 1.0 / out_degree[~dangling]
    norm = b.scale_rows(a, inv_deg)
    if rank0 is None:
        rank = np.full(n, 1.0 / n)
    else:
        rank = np.asarray(rank0, dtype=np.float64).copy()
        if rank.shape != (n,):
            raise ValueError(f"rank0 shape {rank.shape} != ({n},)")
    for it in range(max_iter):
        with b.iteration("pagerank", it):
            spread = b.vxm_dense(rank, norm, semiring=PLUS_TIMES)
        dangling_mass = rank[dangling].sum()
        new_rank = damping * (spread + dangling_mass / n) + (1.0 - damping) / n
        if np.abs(new_rank - rank).sum() < tol:
            return new_rank
        rank = new_rank
    raise RuntimeError(f"PageRank did not converge in {max_iter} iterations")


def pagerank(
    a: CSRMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1.0e-10,
    max_iter: int = 200,
    backend: Backend | None = None,
) -> np.ndarray:
    """PageRank scores of the directed graph ``A`` (edge ``i → j`` stored at
    ``A[i, j]``); returns a probability vector.

    Raises ``RuntimeError`` if power iteration fails to reach ``tol`` within
    ``max_iter`` rounds (L1 convergence).
    """
    b = backend or ShmBackend()
    return _pagerank_core(
        b, b.matrix(a), damping=damping, tol=tol, max_iter=max_iter
    )


def pagerank_incremental(
    a,
    prev_rank: np.ndarray,
    batch=None,
    *,
    damping: float = 0.85,
    tol: float = 1.0e-10,
    max_iter: int = 200,
    backend: Backend | None = None,
) -> np.ndarray:
    """PageRank after a delta batch, warm-restarted from the old scores.

    Power iteration converges from *any* probability-ish starting vector,
    so the repair is simply :func:`pagerank` seeded with ``prev_rank``
    (``rank0``): after a small batch the old scores are already close to
    the new fixed point and the iteration count collapses.  The result
    matches a cold ``pagerank`` on the post-update graph to the usual
    fixed-point tolerance (~``tol``-level differences; the streaming
    differential suite pins agreement at 1e-9 with ``tol=1e-12``).

    ``batch`` is accepted for signature uniformity with the other
    incremental variants (the warm restart needs only the new graph).
    """
    del batch  # the warm restart depends only on the post-update graph
    b = backend or ShmBackend()
    return _pagerank_core(
        b,
        b.matrix(a),
        damping=damping,
        tol=tol,
        max_iter=max_iter,
        rank0=prev_rank,
    )

