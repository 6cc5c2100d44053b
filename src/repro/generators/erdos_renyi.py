"""Erdős–Rényi random sparse matrices — the paper's evaluation workload.

Paper §II-A: "In the Erdős-Rényi random graph model G(n, p), each edge is
present with probability p independently from each other.  For p = d/m
where d ≪ m, in expectation d nonzeros are uniformly distributed in each
column.  … Randomly generated matrices give us precise control over the
nonzero distribution."

The generator samples the *number* of edges from the exact Binomial(n², p)
law and places them uniformly (rejecting the rare duplicate), which is
equivalent to per-entry coin flips but runs in O(nnz) instead of O(n²).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.sort import sorted_unique

__all__ = ["erdos_renyi", "erdos_renyi_triples"]


def _sample(
    n: int, d: float, seed: int | np.random.Generator, values: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one G(n, d/n) sampler behind both public functions.

    Returns ``(cells, perm, vals)``: ``cells`` are sorted distinct linear
    cell indices (``row * n + col``), a superset of the edges;
    ``cells[perm]`` are the ``nnz`` edges in sampled order and ``vals``
    their values.  ``rng.permutation(cells.size)[:nnz]`` draws the same
    shuffle ``rng.permutation(cells)[:nnz]`` does, from the same stream.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if d < 0 or d > n:
        raise ValueError("need 0 <= d <= n")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = d / n
    total_cells = n * n
    nnz = int(rng.binomial(total_cells, p)) if p < 1.0 else total_cells
    # sample distinct linear cell indices; duplicates are rare for d << n,
    # so oversample then top up the shortfall.
    cells = sorted_unique(rng.integers(0, total_cells, size=int(nnz * 1.05) + 16))
    while cells.size < nnz:
        extra = rng.integers(0, total_cells, size=nnz - cells.size + 16)
        cells = sorted_unique(np.concatenate([cells, extra]))
    perm = rng.permutation(cells.size)[:nnz]
    if values == "uniform":
        vals = rng.random(nnz)
    elif values == "one":
        vals = np.ones(nnz)
    else:
        raise ValueError(f"unknown values mode {values!r}")
    return cells, perm, vals


def erdos_renyi_triples(
    n: int,
    d: float,
    *,
    seed: int | np.random.Generator = 0,
    values: str = "uniform",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample G(n, d/n) as (rows, cols, values) triples without duplicates.

    Parameters
    ----------
    n:
        Number of rows/columns (the paper uses square matrices only).
    d:
        Expected nonzeros per row/column; ``p = d/n``.
    seed:
        Integer seed or a numpy Generator (determinism for benchmarks).
    values:
        ``"uniform"`` — U(0,1) values; ``"one"`` — all ones (boolean-style
        adjacency).
    """
    cells, perm, vals = _sample(n, d, seed, values)
    chosen = cells[perm]
    return chosen // n, chosen % n, vals


def erdos_renyi(
    n: int,
    d: float,
    *,
    seed: int | np.random.Generator = 0,
    values: str = "uniform",
) -> CSRMatrix:
    """A G(n, d/n) random matrix in CSR form (see :func:`erdos_renyi_triples`).

    The sampled cells are already sorted, so the shuffle is undone by
    placement instead of a sort: a presence mark per cell selects the
    edges in cell (row-major) order and each value is dropped into its
    cell's slot — O(nnz), and the same CSR ``from_triples`` builds from
    the triples.
    """
    cells, perm, vals = _sample(n, d, seed, values)
    mark = np.zeros(cells.size, dtype=bool)
    mark[perm] = True
    slot = np.empty(cells.size, dtype=vals.dtype)
    slot[perm] = vals
    # free each cell-sized array once read: at n = 2^20 the set-up's peak
    # memory is this function's
    del perm, vals
    values = slot[mark]
    del slot
    colidx = cells[mark]
    del cells
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(colidx // n, minlength=n), out=rowptr[1:])
    np.remainder(colidx, n, out=colidx)
    return CSRMatrix(n, n, rowptr, colidx, values)
