"""Task-parallel cost model: forall / coforall makespans.

The paper's central performance lesson is *burdened parallelism* (§I):
"thread creation and communication costs involved in spawning threads …
especially when the data size is not large enough to create work that would
amortize the parallelization overheads."  Every function here therefore
charges explicit spawn/overhead terms in addition to divided work, so small
inputs stop scaling exactly the way the paper's Figs 4-5 show.

All functions are pure: they map operation counts to simulated seconds with
no global state, so the figure benchmarks can evaluate them both on counts
measured from real kernel executions and on expected counts at paper scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .config import MachineConfig
from .telemetry import registry as _metrics

__all__ = [
    "parallel_time",
    "makespan",
    "coforall_spawn",
    "chunk_sizes",
    "sort_time",
    "local_time_ft",
]


def parallel_time(
    cfg: MachineConfig,
    work_seconds: float,
    threads: int,
    *,
    serial_seconds: float = 0.0,
    mem_bound_fraction: float | None = None,
    cores: int | None = None,
) -> float:
    """Simulated time of a ``forall`` over ``work_seconds`` of total work.

    Model::

        T = forall_overhead + task_spawn * threads     (burden)
          + serial_seconds                             (Amdahl serial part)
          + (1-mb) * W / t_eff                         (CPU-bound portion)
          + mb * W / min(t_eff, mem_channels)          (bandwidth-bound)

    where ``t_eff = min(threads, cores)``.  With the Edison defaults this
    yields the paper's ~20x Apply speedup at 24 threads (Fig 1 left) and the
    flattening from 24 to 32 threads (more tasks than cores buys nothing but
    spawn cost).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cores = cfg.cores_per_node if cores is None else cores
    t_eff = max(min(threads, cores), 1)
    mb = cfg.mem_bound_fraction if mem_bound_fraction is None else mem_bound_fraction
    burden = cfg.forall_overhead + cfg.task_spawn * threads
    cpu = (1.0 - mb) * work_seconds / t_eff
    mem = mb * work_seconds / min(t_eff, cfg.mem_channels)
    return burden + serial_seconds + cpu + mem


def makespan(
    cfg: MachineConfig,
    chunk_seconds: Sequence[float] | np.ndarray,
    threads: int,
    *,
    cores: int | None = None,
) -> float:
    """Simulated time of a forall whose iterations have *uneven* costs.

    ``chunk_seconds`` holds the per-chunk work; chunks are dealt to
    ``threads`` workers in blocks (Chapel's default block-wise iteration),
    and the makespan is the heaviest worker.  Load imbalance — e.g. skewed
    row degrees in SpMSpV — shows up here naturally.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    chunk_seconds = np.asarray(chunk_seconds, dtype=np.float64)
    cores = cfg.cores_per_node if cores is None else cores
    t_eff = max(min(threads, cores), 1)
    burden = cfg.forall_overhead + cfg.task_spawn * threads
    if chunk_seconds.size == 0:
        return burden
    if t_eff == 1:
        return burden + float(chunk_seconds.sum())
    bounds = _worker_bounds(chunk_seconds.size, t_eff)
    cum = np.concatenate(([0.0], np.cumsum(chunk_seconds)))
    per_worker = cum[bounds[1:]] - cum[bounds[:-1]]
    return burden + float(per_worker.max())


@lru_cache(maxsize=4096)
def _worker_bounds(size: int, t_eff: int) -> np.ndarray:
    """Memoized block-deal boundaries for :func:`makespan` — the linspace
    depends only on (chunk count, worker count) and dominates the
    makespan's own cost on small per-locale inputs."""
    out = np.linspace(0, size, t_eff + 1).astype(np.int64)
    out.flags.writeable = False
    return out


def coforall_spawn(cfg: MachineConfig, num_locales: int, locales_per_node: int = 1) -> float:
    """Cost of launching one task on each locale (``coforall … on loc``).

    Remote task launches propagate tree-wise (cost grows with log of the
    locale count).  When locales are oversubscribed onto one node the
    launches serialise through a single network endpoint and the cost grows
    linearly instead — one ingredient of the Fig 10 degradation.
    """
    if num_locales < 1:
        raise ValueError("need at least one locale")
    if num_locales == 1:
        return cfg.task_spawn
    if locales_per_node > 1:
        return cfg.remote_spawn * num_locales
    return cfg.remote_spawn * math.ceil(math.log2(num_locales) + 1)


def chunk_sizes(total: int, parts: int) -> np.ndarray:
    """Block-partition ``total`` items into ``parts`` near-equal chunks.

    The first ``total % parts`` chunks get the extra item — Chapel's block
    distribution rule, reused by the data distributions in
    :mod:`repro.distributed.block`.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, extra = divmod(total, parts)
    out = np.full(parts, base, dtype=np.int64)
    out[:extra] += 1
    return out


def local_time_ft(
    seconds: float,
    *,
    faults=None,
    locale: int = 0,
    site: str = "",
) -> float:
    """Per-locale compute time under fault injection.

    A straggler locale stretches its local work by the plan's slowdown
    factor (the distributed makespan then degrades to the straggler, which
    is exactly how a real SPMD ``coforall`` behaves); a failed locale
    raises :class:`~repro.runtime.faults.LocaleFailure`.  With
    ``faults=None`` this is the identity.
    """
    if faults is None:
        if seconds > 0:
            _metrics.counter("tasks.compute.seconds").inc(seconds, straggler=False)
        return seconds
    faults.check_locale(locale, site)
    slow = faults.slowdown(locale)
    stretched = seconds * slow
    if stretched > 0:
        _metrics.counter("tasks.compute.seconds").inc(stretched, straggler=slow > 1.0)
    return stretched


def sort_time(
    cfg: MachineConfig,
    n_keys: int,
    threads: int,
    *,
    algorithm: str = "merge",
    key_bits: int = 32,
) -> float:
    """Simulated time of the SpMSpV Step-2 sort.

    ``merge`` models Chapel's parallel merge sort: log2(n) passes over n
    keys; passes parallelise but each pass is a full sweep, and the final
    merges use fewer workers (modelled as an extra log-term inefficiency).
    ``radix`` models the LSD integer sort the paper recommends instead
    (§III-D): ceil(key_bits/8) counting passes, fully parallel histograms.
    Compared head-to-head in ``benchmarks/test_abl_sort.py``.
    """
    if n_keys <= 1:
        return cfg.forall_overhead
    t_eff = max(min(threads, cfg.cores_per_node), 1)
    if algorithm == "merge":
        passes = math.ceil(math.log2(n_keys))
        work = cfg.compare_cost * n_keys * passes
        # the last log2(t) merge passes have fewer runs than workers
        tail = cfg.compare_cost * n_keys * math.log2(t_eff) if t_eff > 1 else 0.0
        return parallel_time(cfg, work, threads) + tail / t_eff
    if algorithm == "radix":
        # LSD radix: ceil(key_bits/8) counting passes, each a histogram +
        # stable scatter (two streaming touches per key).  Far fewer passes
        # than merge sort's log2(n) for graph-scale index ranges — the
        # §III-D speedup the paper predicts.
        passes = max((key_bits + 7) // 8, 1)
        work = 2.0 * cfg.stream_cost * n_keys * passes
        return parallel_time(cfg, work, threads)
    raise ValueError(f"unknown sort algorithm {algorithm!r}")
