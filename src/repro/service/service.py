"""The multi-tenant graph query service over the backend protocol.

Layering (enforced by ``tests/test_layering.py``): the service talks to
the algorithms (:mod:`repro.algorithms`), the execution frontend
(:mod:`repro.exec`), the streaming engine (:mod:`repro.streaming`), and
the observability layer — never to kernels or the runtime machinery.
It composes four pieces:

* a deterministic virtual-clock :class:`~repro.service.sched.Scheduler`
  admitting requests from simulated tenants (seeded tie-breaking, so
  whole service runs replay bit-identically);
* a batching planner: compatible queries (same ``batch_key``, i.e. the
  same traversal family against the same graph) arriving within one
  admission ``window`` coalesce into a single multi-source run
  (:mod:`repro.service.queries` names the algorithm layer's
  multi-source core per query family) — the GraphBLAS frontier-matrix
  idiom;
* a :class:`~repro.service.cache.ResultCache` keyed on
  ``(algo, args, storage identity, mutation epoch)``, so streaming
  updates applied through :class:`~repro.streaming.GraphStream`
  invalidate by construction — a post-mutation lookup cannot match a
  pre-mutation entry;
* per-tenant token buckets plus a global queue-depth bound, rejecting
  with typed :class:`~repro.service.quota.ServiceRejection` values.

Every executed run is recorded under a ``svc[req=<ids>]:`` ledger
prefix and mirrored into ``service.*`` metrics, which reconcile
float-exactly with the ledger rows (pinned by the telemetry suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.validate import check_sources
from ..exec.backend import IterationScope
from ..runtime.telemetry import registry as _metrics
from ..streaming import GraphStream
from .cache import ResultCache
from .quota import QueueFull, QuotaConfig, QuotaExceeded, ServiceRejection, TokenBucket
from .queries import QuerySpec, run_batch
from .sched import Scheduler

__all__ = ["Request", "GraphQueryService"]


@dataclass
class Request:
    """One submitted query and everything observed about its lifecycle.

    ``status`` walks ``pending → done`` (or ``rejected``); ``via`` says
    how the result was produced: ``"batch"`` (coalesced multi-source
    run), ``"solo"`` (a window that caught a single query), or
    ``"cache"`` (served from the result cache at arrival).  All times
    are virtual seconds.
    """

    id: int
    tenant: str
    query: QuerySpec
    arrival: float
    status: str = "pending"
    via: str | None = None
    result: np.ndarray | None = None
    error: ServiceRejection | None = None
    finish: float | None = None
    batch_size: int = 0

    @property
    def latency(self) -> float | None:
        """Virtual seconds from arrival to completion (``None`` until done)."""
        return None if self.finish is None else self.finish - self.arrival


@dataclass
class ServiceStats:
    """Aggregate counters the service maintains alongside telemetry."""

    admitted: int = 0
    rejected_quota: int = 0
    rejected_queue: int = 0
    completed: int = 0
    batches: int = 0
    batched_requests: int = 0
    cache_served: int = 0
    exec_seconds: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class GraphQueryService:
    """Admit, batch, cache, and meter traversal queries over one graph.

    Parameters
    ----------
    backend:
        Any :class:`~repro.exec.backend.Backend`; every kernel the
        service issues lands on this backend's machine and ledger.
    graph:
        A :class:`~repro.streaming.GraphStream` (the serving handle
        follows its mutations and the cache invalidates on its epochs),
        or any matrix the backend's ``matrix()`` adopts (static serving).
    window:
        Admission window in virtual seconds: the first pending query of
        a batch key opens a window; every compatible query arriving
        before it expires joins the same multi-source run.
    seed:
        Scheduler tie-break seed (replays are bit-identical per seed).
    quotas:
        Per-tenant :class:`~repro.service.quota.QuotaConfig` overrides;
        ``default_quota`` applies to tenants not listed.
    max_queue:
        Global pending-queue depth bound (backpressure).
    """

    def __init__(
        self,
        backend,
        graph,
        *,
        window: float = 5.0e-5,
        seed: int = 0,
        default_quota: QuotaConfig | None = None,
        quotas: dict[str, QuotaConfig] | None = None,
        max_queue: int = 64,
        cache_entries: int = 256,
        registry=None,
    ) -> None:
        if window < 0:
            raise ValueError("window must be non-negative")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.backend = backend
        self.stream = graph if isinstance(graph, GraphStream) else None
        self.handle = (
            self.stream.handle if self.stream is not None else backend.matrix(graph)
        )
        self.window = window
        self.scheduler = Scheduler(seed)
        self.max_queue = max_queue
        self.default_quota = default_quota or QuotaConfig()
        self._quotas = dict(quotas or {})
        self._buckets: dict[str, TokenBucket] = {}
        self._registry = (
            registry if registry is not None else _metrics.default_registry()
        )
        self.cache = ResultCache(cache_entries, registry=self._registry)
        self._pending: dict[str, list[Request]] = {}
        self.requests: list[Request] = []
        self.stats = ServiceStats()

    # -- submission ----------------------------------------------------------

    def submit(self, tenant: str, query: QuerySpec, at: float | None = None) -> Request:
        """Schedule one query's arrival; returns its live :class:`Request`.

        Nothing happens until :meth:`run` drains the event loop —
        submission is how the simulated workload is *described*, the
        scheduler decides the interleaving.
        """
        check_sources(self.backend.shape(self.handle)[0], query.source)
        arrival = self.scheduler.now if at is None else at
        req = Request(
            id=len(self.requests) + 1, tenant=tenant, query=query, arrival=arrival
        )
        self.requests.append(req)
        self.scheduler.at(arrival, lambda: self._arrive(req))
        return req

    def submit_update(self, batch, at: float | None = None) -> None:
        """Schedule a streaming delta batch (requires a ``GraphStream``).

        The apply charges the ledger under its own ``stream[epoch=k]:``
        scope, advances the virtual clock by its simulated seconds, and
        bumps the mutation epoch — from that instant no pre-mutation
        cache entry can be served.
        """
        if self.stream is None:
            raise ValueError("service was built over a static graph, not a stream")
        when = self.scheduler.now if at is None else at
        self.scheduler.at(when, lambda: self._apply_update(batch))

    def run(self) -> "GraphQueryService":
        """Drain the event loop (arrivals, windows, updates); returns self."""
        self.scheduler.run()
        return self

    # -- internals -----------------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self._quotas.get(tenant, self.default_quota)
            )
        return bucket

    def _depth(self) -> int:
        return sum(len(reqs) for reqs in self._pending.values())

    def _count_request(self, req: Request, outcome: str) -> None:
        self._registry.counter("service.requests").inc(
            1, tenant=req.tenant, algo=req.query.algo, outcome=outcome
        )

    def _reject(self, req: Request, error: ServiceRejection) -> None:
        req.status = "rejected"
        req.error = error
        self._count_request(req, f"rejected_{error.reason}")
        if isinstance(error, QuotaExceeded):
            self.stats.rejected_quota += 1
        else:
            self.stats.rejected_queue += 1

    def _arrive(self, req: Request) -> None:
        now = self.scheduler.now
        req.arrival = now  # the clock may have run past the asked-for time
        bucket = self._bucket(req.tenant)
        if not bucket.try_acquire(now):
            self._reject(req, QuotaExceeded(req.tenant, bucket.retry_after(now)))
            return
        cached = self.cache.get(req.query.algo, req.query.cache_args, self.handle)
        if cached is not None:
            self._count_request(req, "admitted")
            self.stats.admitted += 1
            self.stats.cache_served += 1
            # a private copy: tenants may scribble on their results
            self._complete(
                req, np.array(cached, copy=True), now, via="cache", batch_size=1
            )
            return
        if self._depth() >= self.max_queue:
            self._reject(req, QueueFull(req.tenant, self._depth()))
            return
        self._count_request(req, "admitted")
        self.stats.admitted += 1
        key = req.query.batch_key
        waiting = self._pending.setdefault(key, [])
        waiting.append(req)
        self._registry.gauge("service.queue.depth").set(self._depth())
        if len(waiting) == 1:  # first in this window: arm its flush
            self.scheduler.after(self.window, lambda: self._flush(key))

    def _flush(self, key: str) -> None:
        reqs = self._pending.pop(key, [])
        if not reqs:
            return
        reqs.sort(key=lambda r: r.id)  # stable source order, whatever the ties
        self._registry.gauge("service.queue.depth").set(self._depth())
        sources = np.asarray([r.query.source for r in reqs], dtype=np.int64)
        scope = "svc[req=" + "+".join(str(r.id) for r in reqs) + "]"
        ledger = self.backend.machine.ledger
        start = len(ledger.entries) if ledger is not None else 0
        with IterationScope(
            ledger,
            scope,
            registry=self._registry,
            profile=getattr(self.backend, "profile", None),
        ):
            results = run_batch(self.backend, self.handle, key, sources)
        seconds = (
            sum(b.total for _, b in ledger.entries[start:])
            if ledger is not None
            else 0.0
        )
        self.scheduler.clock.advance(seconds)
        finish = self.scheduler.now
        self.stats.batches += 1
        self.stats.exec_seconds += seconds
        via = "batch" if len(reqs) > 1 else "solo"
        if len(reqs) > 1:
            self.stats.batched_requests += len(reqs)
        self._registry.counter("service.batches").inc(1, algo=key)
        self._registry.histogram("service.batch.size").observe(len(reqs), algo=key)
        self._registry.histogram("service.exec.seconds").observe(seconds, algo=key)
        for i, req in enumerate(reqs):
            row = np.array(results[i], copy=True)
            self.cache.put(req.query.algo, req.query.cache_args, self.handle, row)
            # each request gets its own copy; the cache's array stays private
            self._complete(req, row.copy(), finish, via=via, batch_size=len(reqs))

    def _complete(
        self, req: Request, result: np.ndarray, finish: float, *, via: str, batch_size: int
    ) -> None:
        req.status = "done"
        req.result = result
        req.finish = finish
        req.via = via
        req.batch_size = batch_size
        self.stats.completed += 1
        self._registry.histogram("service.latency.seconds").observe(
            req.latency, tenant=req.tenant, algo=req.query.algo
        )

    def _apply_update(self, batch) -> None:
        ledger = self.backend.machine.ledger
        start = len(ledger.entries) if ledger is not None else 0
        self.stream.apply(batch)
        seconds = (
            sum(b.total for _, b in ledger.entries[start:])
            if ledger is not None
            else 0.0
        )
        self.scheduler.clock.advance(seconds)

    # -- views ---------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate service counters plus the cache's, one dict."""
        out = self.stats.as_dict()
        out["cache"] = self.cache.stats()
        out["pending"] = self._depth()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphQueryService(backend={self.backend.name!r}, "
            f"requests={len(self.requests)}, completed={self.stats.completed})"
        )
