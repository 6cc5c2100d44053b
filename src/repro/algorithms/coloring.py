"""Greedy graph colouring by repeated maximal independent sets.

Jones–Plassmann style: peel a maximal independent set (one colour class)
off the remaining graph until no vertices remain.  Uses at most Δ+1
colours in practice and parallelises exactly like the MIS primitive it is
built on — each round is the same (max, second) SpMV dance, so the whole
algorithm runs unchanged on the distributed backend.

A self-looped vertex is its own neighbour, so it can never join an MIS
and never receives a colour; once every other vertex is coloured an MIS
round colours nothing, and :class:`SelfLoopError` names the loops instead
of spinning.
"""

from __future__ import annotations

import numpy as np

from ..exec import Backend, ShmBackend
from ..sparse.csr import CSRMatrix
from .mis import _mis_core

__all__ = ["SelfLoopError", "greedy_coloring", "is_valid_coloring"]


class SelfLoopError(ValueError):
    """The graph has self-loops, which no proper colouring can satisfy."""

    def __init__(self, vertices: np.ndarray) -> None:
        self.vertices = np.asarray(vertices, dtype=np.int64)
        shown = ", ".join(str(int(v)) for v in self.vertices[:10])
        more = ", …" if self.vertices.size > 10 else ""
        super().__init__(
            f"cannot colour a graph with self-loops: {self.vertices.size} "
            f"looped vertices [{shown}{more}]"
        )


def _greedy_coloring_core(b: Backend, a, *, seed: int) -> np.ndarray:
    if b.shape(a)[0] != b.shape(a)[1]:
        raise ValueError("adjacency matrix must be square")
    n = b.shape(a)[0]
    colors = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n, dtype=np.int64)  # original ids of live vertices
    sub = a
    color = 0
    while remaining.size:
        # one colour class per round; the nested MIS rounds keep their own
        # prefixes, so ledger labels read coloring[iter=c]:mis[iter=r]:...
        with b.iteration("coloring", color):
            in_set = _mis_core(b, sub, seed=seed + color, max_rounds=None)
            if not in_set.any():
                # without self-loops the top-scoring candidate always wins,
                # so an empty class means only looped vertices are left
                csr = b.to_csr(sub)
                rows = csr.row_indices()
                raise SelfLoopError(remaining[np.unique(rows[rows == csr.colidx])])
            colors[remaining[in_set]] = color
            keep = ~in_set
            if not keep.any():
                break
            keep_idx = np.flatnonzero(keep).astype(np.int64)
            sub = b.extract(sub, keep_idx, keep_idx)
            remaining = remaining[keep_idx]
        color += 1
    return colors


def greedy_coloring(
    a: CSRMatrix, *, seed: int = 0, backend: Backend | None = None
) -> np.ndarray:
    """Per-vertex colours (0-based) of the undirected simple graph ``a``.

    No two adjacent vertices share a colour
    (:func:`is_valid_coloring` asserts it in the tests).  Raises
    :class:`SelfLoopError` when ``a`` has self-loops.
    """
    b = backend or ShmBackend()
    return _greedy_coloring_core(b, b.matrix(a), seed=seed)


def is_valid_coloring(a: CSRMatrix, colors: np.ndarray) -> bool:
    """True when no stored edge joins two same-coloured vertices."""
    rows = a.row_indices()
    cols = a.colidx
    off_diag = rows != cols
    return bool(
        np.all(colors[rows[off_diag]] != colors[cols[off_diag]])
        and np.all(colors >= 0)
    )
