"""Multi-tenant graph query service — the serving layer over the backend.

ROADMAP item 3 made concrete: a deterministic virtual-clock scheduler
admits concurrent traversal queries from simulated tenants, coalesces
compatible BFS/SSSP queries into batched multi-source runs (the
algorithm layer's ``bfs_levels_batch``/``sssp_batch``: one ``mxm`` over
a frontier *matrix* — the GraphBLAS idiom for concurrent queries),
serves hot results from an epoch-invalidated cache wired to the
streaming engine, and enforces per-tenant token-bucket quotas with
queue-depth backpressure.  See ``docs/service.md``.
"""

from .cache import ResultCache
from .quota import (
    QueueFull,
    QuotaConfig,
    QuotaExceeded,
    ServiceRejection,
    TokenBucket,
)
from .queries import ALGOS, QuerySpec, run_batch
from .sched import Scheduler, VirtualClock
from .service import GraphQueryService, Request

__all__ = [
    "ALGOS",
    "GraphQueryService",
    "QueueFull",
    "QuerySpec",
    "QuotaConfig",
    "QuotaExceeded",
    "Request",
    "ResultCache",
    "Scheduler",
    "ServiceRejection",
    "TokenBucket",
    "VirtualClock",
    "run_batch",
]
