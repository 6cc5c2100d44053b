"""Output checks in plain numpy over the global CSR arrays.

None of these reuse the library's kernels: each takes the raw
``rowptr`` / ``colidx`` / ``values`` arrays and recomputes or validates
an answer directly.  Every function returns a list of problems (empty
when the answer is right), so a caller can count and report them.
"""

from __future__ import annotations

import numpy as np


def row_ids(rowptr: np.ndarray) -> np.ndarray:
    """The row index of every stored entry."""
    return np.repeat(np.arange(rowptr.size - 1, dtype=np.int64), np.diff(rowptr))


def bfs_level_problems(
    rowptr: np.ndarray, colidx: np.ndarray, source: int, levels: np.ndarray
) -> list[str]:
    """Validate BFS levels on the directed graph ``i → colidx`` of row ``i``.

    Valid levels satisfy: the source is 0; every edge out of a reached
    vertex ends at a reached vertex at most one level deeper; every
    reached vertex other than the source has an in-edge from the level
    just above it; unreached vertices are -1.
    """
    n = rowptr.size - 1
    levels = np.asarray(levels)
    if levels.shape != (n,):
        return [f"levels shape {levels.shape} != ({n},)"]
    if levels[source] != 0:
        return [f"source {source} at level {levels[source]}"]
    problems = []
    if np.any(levels < -1):
        problems.append("level below -1")
    if np.count_nonzero(levels == 0) != 1:
        problems.append("more than one vertex at level 0")
    src_lv = levels[row_ids(rowptr)]
    dst_lv = levels[colidx]
    reached_edge = src_lv >= 0
    if np.any(dst_lv[reached_edge] < 0):
        problems.append("edge from a reached vertex to an unreached one")
    if np.any(dst_lv[reached_edge] > src_lv[reached_edge] + 1):
        problems.append("edge skipping a level")
    parent_ok = np.zeros(n, dtype=bool)
    tight = reached_edge & (dst_lv == src_lv + 1)
    parent_ok[colidx[tight]] = True
    deep = levels > 0
    if np.any(deep & ~parent_ok):
        problems.append("reached vertex without a parent one level up")
    return problems


def bfs_levels(rowptr: np.ndarray, colidx: np.ndarray, source: int) -> np.ndarray:
    """Reference BFS levels by frontier expansion (-1 = unreachable)."""
    n = rowptr.size - 1
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = rowptr[frontier]
        lens = rowptr[frontier + 1] - starts
        # positions starts[k] .. starts[k]+lens[k]-1 for every frontier row k
        first = np.cumsum(lens) - lens
        take = np.repeat(starts - first, lens) + np.arange(lens.sum())
        reached = np.zeros(n, dtype=bool)
        reached[colidx[take]] = True
        frontier = np.flatnonzero(reached & (levels < 0))
        levels[frontier] = depth
    return levels


def sssp_distances(
    rowptr: np.ndarray, colidx: np.ndarray, values: np.ndarray, source: int
) -> np.ndarray:
    """Reference shortest-path distances by Bellman-Ford relaxation rounds."""
    n = rowptr.size - 1
    rows = row_ids(rowptr)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    for _ in range(n):
        cand = dist[rows] + values
        new = dist.copy()
        np.minimum.at(new, colidx, cand)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist


def pagerank_problems(
    rowptr: np.ndarray,
    colidx: np.ndarray,
    values: np.ndarray,
    rank: np.ndarray,
    *,
    damping: float,
    tol: float,
) -> list[str]:
    """PageRank sums to 1, and one more power step moves it less than ``tol``."""
    n = rowptr.size - 1
    rank = np.asarray(rank, dtype=np.float64)
    if rank.shape != (n,):
        return [f"rank shape {rank.shape} != ({n},)"]
    problems = []
    if abs(rank.sum() - 1.0) > 1e-9:
        problems.append(f"ranks sum to {float(rank.sum())!r}")
    rows = row_ids(rowptr)
    out_w = np.bincount(rows, weights=values, minlength=n)
    dangling = out_w == 0
    inv = np.zeros(n)
    inv[~dangling] = 1.0 / out_w[~dangling]
    spread = np.bincount(colidx, weights=rank[rows] * values * inv[rows], minlength=n)
    step = damping * (spread + rank[dangling].sum() / n) + (1.0 - damping) / n
    moved = np.abs(step - rank).sum()
    if not moved < tol:
        problems.append(f"one more power step moves the ranks by {float(moved)!r} >= {tol}")
    return problems


def vxm_reference(
    rowptr: np.ndarray,
    colidx: np.ndarray,
    values: np.ndarray,
    x_indices: np.ndarray,
    x_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``y = x · A`` over (+, ×) for a square ``A``, as sorted (indices, values)."""
    n = rowptr.size - 1
    xd = np.zeros(n)
    present = np.zeros(n, dtype=bool)
    xd[x_indices] = x_values
    present[x_indices] = True
    rows = row_ids(rowptr)
    live = present[rows]
    cols = colidx[live]
    y = np.bincount(cols, weights=xd[rows[live]] * values[live], minlength=n)
    hit = np.bincount(cols, minlength=n) > 0
    idx = np.flatnonzero(hit)
    return idx, y[idx]


def vector_problems(
    what: str,
    got_indices: np.ndarray,
    got_values: np.ndarray,
    want_indices: np.ndarray,
    want_values: np.ndarray,
    *,
    rtol: float = 0.0,
) -> list[str]:
    """Compare a sparse result against its reference (exact by default)."""
    if not np.array_equal(np.asarray(got_indices), np.asarray(want_indices)):
        return [f"{what}: stored indices differ"]
    got = np.asarray(got_values, dtype=np.float64)
    want = np.asarray(want_values, dtype=np.float64)
    same = np.array_equal(got, want) if rtol == 0.0 else np.allclose(got, want, rtol=rtol, atol=0.0)
    return [] if same else [f"{what}: stored values differ"]


def distance_problems(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Compare distance or level vectors (unreachable entries must agree)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if not np.array_equal(np.isinf(got), np.isinf(want)):
        return [f"{what}: reachable sets differ"]
    fin = np.isfinite(want)
    if not np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0):
        return [f"{what}: values differ"]
    return []
