"""Single-source shortest paths — Bellman-Ford on the tropical semiring.

The classic GraphBLAS SSSP: distances relax through repeated
``d ← d min (d ⊗ A)`` steps where ``⊗`` is ``(min, +)`` — the MIN_PLUS
semiring shipped in :mod:`repro.algebra.semiring`.  Runs until a fixpoint or
``n-1`` iterations; a further improving iteration afterwards means a
negative cycle.  The core is backend-agnostic, so the same code relaxes
over the distributed backend (min is associative, so results are
bit-identical across backends); each relaxation is recorded under an
``sssp[iter=k]:`` ledger prefix.

:func:`sssp_batch` runs the same rounds from many sources at once on a
``len(sources) × n`` distance *matrix* — the query service batches
concurrent SSSP queries through it.
"""

from __future__ import annotations

import numpy as np

from ..algebra.functional import MIN
from ..algebra.semiring import MIN_PLUS
from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from .validate import check_sources

__all__ = ["sssp", "sssp_batch", "NegativeCycleError"]


class NegativeCycleError(ValueError):
    """The graph contains a cycle with negative total weight."""


def _sssp_core(
    b: Backend, a, source: int, *, check_negative_cycles: bool
) -> np.ndarray:
    if b.shape(a)[0] != b.shape(a)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(a)[0]
    check_sources(n, source)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    for it in range(max(n - 1, 1)):
        with b.iteration("sssp", it):
            relaxed = b.vxm_dense(dist, a, semiring=MIN_PLUS)
        new_dist = np.minimum(dist, relaxed)
        if np.array_equal(new_dist, dist, equal_nan=True):
            break
        dist = new_dist
    else:
        if check_negative_cycles:
            relaxed = b.vxm_dense(dist, a, semiring=MIN_PLUS)
            if np.any(np.minimum(dist, relaxed) < dist):
                raise NegativeCycleError("negative cycle reachable from source")
    return dist


def sssp(
    a: CSRMatrix,
    source: int,
    *,
    check_negative_cycles: bool = True,
    backend: Backend | None = None,
) -> np.ndarray:
    """Distances from ``source`` along weighted edges ``A[i, j]``.

    Unreachable vertices get ``inf``.  Edge weights may be negative;
    ``check_negative_cycles`` raises :class:`NegativeCycleError` when a
    negative cycle is reachable from the source.
    """
    b = backend or ShmBackend()
    return _sssp_core(
        b, b.matrix(a), source, check_negative_cycles=check_negative_cycles
    )


def _same_state(b: Backend, d, new) -> bool:
    """Whether two distance-state matrices store the same entries."""
    dc, nc = b.to_csr(d), b.to_csr(new)
    return (
        np.array_equal(dc.rowptr, nc.rowptr)
        and np.array_equal(dc.colidx, nc.colidx)
        and np.array_equal(dc.values, nc.values)
    )


def sssp_batch(
    a: CSRMatrix, sources: np.ndarray, *, backend: Backend | None = None
) -> np.ndarray:
    """Distances from every source at once: Bellman–Ford on a state matrix.

    The distance state is a sparse ``len(sources) × n`` matrix on the
    tropical semiring (absent = +inf, the sources' own zeros stored
    explicitly); each round is ``D ← D min (D ⊗ A)`` — one ``mxm`` with
    ``accum=MIN`` folding the previous state, recorded under an
    ``sssp_batch[iter=k]:`` ledger prefix and run to the fixpoint or
    ``n-1`` rounds.  Every candidate distance is one ``d[u] + w`` term
    folded with ``min`` (order-free over floats), so row ``i`` is
    bit-identical to ``sssp(a, sources[i])``.  Returns a dense float
    array with ``inf`` for unreachable vertices; raises
    :class:`NegativeCycleError` when a negative cycle is reachable from
    any source, as :func:`sssp` does.
    """
    b = backend or ShmBackend()
    am = b.matrix(a)
    if b.shape(am)[0] != b.shape(am)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(am)[0]
    sources = np.asarray(sources, dtype=np.int64)
    check_sources(n, sources)
    ns = sources.size
    if ns == 0:
        return np.full((0, n), np.inf)
    d = b.matrix(
        CSRMatrix.from_triples(ns, n, np.arange(ns), sources, np.zeros(ns))
    )
    for it in range(max(n - 1, 1)):
        with b.iteration("sssp_batch", it):
            new = b.mxm(d, am, semiring=MIN_PLUS, accum=MIN, out=d)
        converged = _same_state(b, d, new)
        d = new
        if converged:
            break
    else:
        new = b.mxm(d, am, semiring=MIN_PLUS, accum=MIN, out=d)
        if not _same_state(b, d, new):
            raise NegativeCycleError("negative cycle reachable from a source")
    dc = b.to_csr(d)
    out = np.full((ns, n), np.inf)
    out[dc.row_indices(), dc.colidx] = dc.values
    return out
