"""The benchmark's three workloads.

Each workload has a ``setup(seed, probe)`` (generation plus distribution,
timed as ``setup_s``) and a ``run_pass(state, probe, rec)`` that runs one
fixed script of user-visible steps through :meth:`Recorder.step` (timed,
summed into ``run_s``) and checks every answer with :mod:`checks`
outside the timed steps.  Sizes are fixed here; only the seed varies.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field

import numpy as np

from repro.algebra.functional import LAND, SQUARE
from repro.algorithms import bfs_levels, pagerank
from repro.distributed import DistDenseVector, DistSparseMatrix, DistSparseVector
from repro.generators import erdos_renyi, random_sparse_vector
from repro.generators.vectors import random_bool_dense
from repro.ops.apply import apply1, apply2
from repro.ops.assign import assign1, assign2
from repro.ops.ewise import ewisemult_dist
from repro.ops.spmspv import spmspv_dist, spmspv_shm
from repro.runtime import CostLedger, LocaleGrid
from repro.runtime.telemetry import registry
from repro.runtime.telemetry.timeline import write_chrome_trace
from repro.runtime.trace import Trace
from repro.service import GraphQueryService, QuerySpec
from repro.sparse import CSRMatrix, SparseVector
from repro.streaming import UpdateBatch

import checks

# ---------------------------------------------------------------------------
# pass bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Recorder:
    """What one pass measured: step wall times, checks, exact counts."""

    tracer: object = None
    #: position of this pass in the run (varies the sampled checks)
    index: int = 0
    steps: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: simulated seconds and comm/ledger counts; must repeat bit-for-bit
    sim: dict[str, float] = field(default_factory=dict)
    #: other per-layer numbers the pass observed (counts, rates)
    layer: dict[str, float] = field(default_factory=dict)
    #: self-test hook: the kind of answer to corrupt once (see :meth:`answer`)
    corrupt: str = ""

    def step(self, name: str, fn, *args, **kwargs):
        """Run and time one user-visible step (a root span when tracing)."""
        if self.tracer is not None:
            self.tracer.begin(f"step.{name}", "bench")
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.steps.append((name, time.perf_counter() - t0))
            if self.tracer is not None:
                self.tracer.end()

    def answer(self, kind: str, value):
        """``value`` as checked; the self-test's corrupted kind gets +1 at its
        largest finite entry, once, so the check must catch it."""
        if kind != self.corrupt:
            return value
        self.corrupt = ""
        value = np.array(value, dtype=np.float64 if kind == "pagerank" else None, copy=True)
        finite = np.where(np.isfinite(value), value, -np.inf)
        value[np.argmax(finite)] += 1
        return value

    def verify(self, what: str, problems: list[str]) -> None:
        """Count one checked operation; any problem fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def _slug(component: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", component.lower()).strip("_")


def sim_counts(ledger: CostLedger) -> dict[str, float]:
    """Simulated seconds per component and the comm/ledger/dispatch counts
    the pass produced (the registry is reset at the start of every pass)."""
    out = {"runtime.sim_s": ledger.total, "runtime.ledger.entries": len(ledger.entries)}
    for label, breakdown in ledger.entries:
        # a dispatch span's component is the chosen kernel: group them all
        dispatch = label.rsplit(":", 1)[-1].startswith("dispatch[")
        for component, seconds in breakdown.items():
            key = "runtime.sim.dispatch_s" if dispatch else f"runtime.sim.{_slug(component)}_s"
            out[key] = out.get(key, 0.0) + seconds
    for name in ("comm.fine.elems", "comm.bulk.bytes", "comm.gather.elems", "dispatch.decisions"):
        out[name] = registry.counter(name).total()
    plans = registry.counter("dispatch.plan_cache")
    out["dispatch.plan_cache.hits"] = plans.total(outcome="hit")
    out["dispatch.plan_cache.misses"] = plans.total(outcome="miss")
    return out


def _timed_gen(probe, name: str, fn, *args, **kwargs):
    return probe.call(f"generators.{name}", "generators", fn, *args, **kwargs)


def _distribute(probe, cls, *args):
    return probe.call("distributed.from_global", "distributed", cls.from_global, *args)


def _gather(probe, dist_vector):
    return probe.call("distributed.gather", "distributed", dist_vector.gather)


# ---------------------------------------------------------------------------
# analytics-er
# ---------------------------------------------------------------------------


class AnalyticsER:
    """ER graph on a 4×4 grid: BFS from seeded sources, PageRank, export."""

    name = "analytics-er"
    sizes = {
        "full": dict(n=2**18, d=8, grid=(4, 4), sources=4),
        "tiny": dict(n=2**10, d=8, grid=(2, 2), sources=2),
    }
    damping, tol = 0.85, 1e-8

    def __init__(self, size: str, out_dir) -> None:
        self.cfg = self.sizes[size]
        self.out_dir = out_dir

    def setup(self, seed: int, probe):
        cfg = self.cfg
        a = _timed_gen(probe, "erdos_renyi", erdos_renyi, cfg["n"], cfg["d"], seed=seed)
        grid = LocaleGrid(*cfg["grid"])
        dist = _distribute(probe, DistSparseMatrix, a, grid)
        rng = np.random.default_rng([seed, 1])
        candidates = np.flatnonzero(np.diff(a.rowptr) > 0)
        sources = rng.choice(candidates, size=cfg["sources"], replace=False)
        return {"a": a, "dist": dist, "sources": [int(s) for s in sources], "gen_nnz": a.nnz}

    def run_pass(self, state, probe, rec: Recorder) -> None:
        a, dist = state["a"], state["dist"]
        machine = probe.machine(
            grid=LocaleGrid(*self.cfg["grid"]), threads_per_locale=24, ledger=CostLedger()
        )
        b = probe.backend(machine)
        degrees = np.diff(a.rowptr)
        traversed = 0
        for src in state["sources"]:
            levels = rec.step(
                "bfs", probe.call, "algorithms.bfs", "algorithms",
                bfs_levels, dist, src, backend=b,
            )
            levels = rec.answer("bfs", levels)
            rec.verify(f"bfs({src})", checks.bfs_level_problems(a.rowptr, a.colidx, src, levels))
            traversed += int(degrees[levels >= 0].sum())
        rank = rec.step(
            "pagerank", probe.call, "algorithms.pagerank", "algorithms",
            pagerank, dist, damping=self.damping, tol=self.tol, backend=b,
        )
        rank = rec.answer("pagerank", rank)
        rec.verify(
            "pagerank",
            checks.pagerank_problems(
                a.rowptr, a.colidx, a.values, rank, damping=self.damping, tol=self.tol
            ),
        )
        iters = len({label.split("]", 1)[0] for label, _ in machine.ledger.entries
                     if label.startswith("pagerank[iter=")})
        rec.sim.update(sim_counts(machine.ledger))
        written = rec.step(
            "export", probe.call, "telemetry.export", "telemetry", self._export, machine
        )
        rec.verify("export", [] if written > 0 else ["nothing written"])
        rec.sim["algorithms.pagerank.iters"] = iters
        rec.layer.update(
            {
                "telemetry.trace_bytes": written,
                "algorithms.bfs.edges": traversed,
                "algorithms.pagerank.edges": a.nnz * iters,
            }
        )

    def _export(self, machine) -> int:
        """Chrome trace of the simulated ledger plus a registry snapshot."""
        trace_path = self.out_dir / "analytics-er.sim-trace.json"
        write_chrome_trace(Trace(machine.ledger), trace_path, machine=machine)
        snap_path = self.out_dir / "analytics-er.metrics.json"
        snap_path.write_text(json.dumps(registry.snapshot()))
        return trace_path.stat().st_size + snap_path.stat().st_size


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------


class ServiceMixed:
    """A query service over a streamed graph: reads beside writes.

    Rounds are a closed loop in wall time (the next round starts when the
    service has drained the last one); inside a round, arrivals are an
    open loop in virtual time (exponential gaps, independent of service
    speed).
    """

    name = "service-mixed"
    sizes = {
        "full": dict(n=8192, d=8, grid=(2, 2), tenants=8, rounds=40, per_round=4,
                     update_every=4, pairs=128, hot=64),
        "tiny": dict(n=512, d=8, grid=(2, 2), tenants=4, rounds=12, per_round=4,
                     update_every=4, pairs=16, hot=16),
    }
    #: the Zipf exponent and the mean arrival gap are calibrated, under the
    #: fixed traffic seed, to the workload's specified service mix: 165 of
    #: 480 answers from the cache in 185 batches (0.344 and 0.385 per
    #: query); 40 rounds give 54 of 160 in 62 batches (perfbench/README.md)
    bfs_share, zipf_s, gap_s = 0.7, 1.4, 1.2e-5
    traffic_seed = 0
    #: edge weights, initial and inserted
    weights = (0.5, 2.0)
    checked_per_pass = 12

    def __init__(self, size: str, out_dir) -> None:
        self.cfg = self.sizes[size]

    def setup(self, seed: int, probe):
        cfg = self.cfg
        n = cfg["n"]
        a = _timed_gen(probe, "weighted_er", self._weighted_er, n, cfg["d"], seed)
        rng = np.random.default_rng([seed, 2])
        hot = rng.choice(n, size=cfg["hot"], replace=False)
        zipf = 1.0 / np.arange(1, cfg["hot"] + 1) ** self.zipf_s
        zipf /= zipf.sum()
        # the traffic's shape (tenants, algorithms, popularity ranks, gaps) is
        # part of the workload's definition, so cache hits and batching repeat
        # from seed to seed; the seed picks the graph, the hot vertices and
        # the inserted edges
        traffic = np.random.default_rng(self.traffic_seed)
        rounds, inserts = [], []
        for r in range(cfg["rounds"]):
            batch = None
            if r % cfg["update_every"] == 0:
                u = rng.integers(0, n, size=cfg["pairs"])
                v = (u + rng.integers(1, n, size=cfg["pairs"])) % n  # no self-loops
                w = rng.uniform(*self.weights, size=cfg["pairs"])
                edges = (np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]))
                batch = probe.call(
                    "streaming.from_edges", "streaming",
                    UpdateBatch.from_edges, n, n, inserts=edges,
                )
                inserts.append(edges)
            queries = [
                (
                    f"tenant{int(traffic.integers(cfg['tenants']))}",
                    "bfs" if traffic.random() < self.bfs_share else "sssp",
                    int(hot[traffic.choice(cfg["hot"], p=zipf)]),
                    float(traffic.exponential(self.gap_s)) + 1e-9,
                )
                for _ in range(cfg["per_round"])
            ]
            rounds.append((batch, queries))
        return {"a": a, "rounds": rounds, "inserts": inserts, "seed": seed,
                "gen_nnz": a.nnz, "graphs": {}}

    @classmethod
    def _weighted_er(cls, n: int, d: int, seed: int) -> CSRMatrix:
        """ER structure with weights bounded away from 0, so shortest paths
        take about as many hops as BFS levels."""
        a = erdos_renyi(n, d, seed=seed)
        w = np.random.default_rng([seed, 5]).uniform(*cls.weights, size=a.nnz)
        return CSRMatrix.from_triples(n, n, a.row_indices(), a.colidx, w)

    def run_pass(self, state, probe, rec: Recorder) -> None:
        cfg = self.cfg
        machine = probe.machine(
            grid=LocaleGrid(*cfg["grid"]), threads_per_locale=2, ledger=CostLedger()
        )
        b = probe.backend(machine)
        stream = rec.step("load", probe.stream, b, state["a"])
        svc = GraphQueryService(b, stream, seed=state["seed"])
        asked = []  # (request, epoch)
        for r, (batch, queries) in enumerate(state["rounds"]):
            reqs = rec.step("round", self._round, probe, svc, batch, queries)
            asked.extend((req, r // cfg["update_every"] + 1) for req in reqs)
        rec.sim.update(sim_counts(machine.ledger))
        self._verify(state, asked, rec)
        stats = svc.stats
        lat = [req.latency for req, _ in asked if req.latency is not None]
        executed = stats.completed - stats.cache_served
        rec.sim.update(
            {
                "streaming.batches": sum(batch is not None for batch, _ in state["rounds"]),
                "streaming.edges": sum(e[0].size for e in state["inserts"]),
                "service.batches": stats.batches,
                "service.batch_size_mean": executed / stats.batches if stats.batches else 0.0,
                "service.cache_hit_ratio": stats.cache_served / max(stats.completed, 1),
                "service.rejected": stats.rejected_quota + stats.rejected_queue,
                "service.virtual_latency_p50_s": float(np.percentile(lat, 50)) if lat else 0.0,
                "service.virtual_latency_p99_s": float(np.percentile(lat, 99)) if lat else 0.0,
            }
        )
        rec.layer["service.queries"] = len(asked)

    def _round(self, probe, svc, batch, queries):
        at = svc.scheduler.now
        if batch is not None:
            svc.submit_update(batch, at=at)
        reqs = []
        for tenant, algo, source, gap in queries:
            at += gap
            reqs.append(svc.submit(tenant, QuerySpec(algo, source), at=at))
        probe.call("service.run", "service", svc.run)
        return reqs

    def _graph(self, state, epoch: int):
        """The expected graph after ``epoch`` insert batches (numpy mirror:
        upserts overwrite, later batches win)."""
        graphs = state["graphs"]
        if epoch not in graphs:
            a, n = state["a"], state["a"].nrows
            keys = [checks.row_ids(a.rowptr) * n + a.colidx]
            vals = [a.values]
            for u, v, w in state["inserts"][:epoch]:
                keys.append(u * n + v)
                vals.append(w)
            keys, vals = np.concatenate(keys), np.concatenate(vals)
            # keep the last write of every key
            order = np.argsort(keys, kind="stable")
            keys, vals = keys[order], vals[order]
            last = np.append(keys[1:] != keys[:-1], True)
            keys, vals = keys[last], vals[last]
            rowptr = np.searchsorted(keys // n, np.arange(n + 1))
            graphs[epoch] = (rowptr, keys % n, vals)
        return graphs[epoch]

    def _verify(self, state, asked, rec: Recorder) -> None:
        """Every request must be answered; a seeded sample (plus every query
        after the last update) is recomputed on the mirrored graph."""
        last_epoch = max(e for _, e in asked)
        rng = np.random.default_rng([state["seed"], 3, rec.index])
        sample = set(rng.choice(len(asked), size=min(self.checked_per_pass, len(asked)), replace=False))
        sample |= {i for i, (_, e) in enumerate(asked) if e == last_epoch}
        for i, (req, epoch) in enumerate(asked):
            what = f"request {req.id} ({req.query.algo} from {req.query.source})"
            if req.status != "done":
                rec.verify(what, [f"status {req.status}"])
                continue
            if i not in sample:
                rec.verify(what, [])
                continue
            rowptr, colidx, values = self._graph(state, epoch)
            src = req.query.source
            got = rec.answer("service", req.result)
            if req.query.algo == "bfs":
                want = checks.bfs_levels(rowptr, colidx, src)
                rec.verify(what, [] if np.array_equal(got, want) else ["levels differ"])
            else:
                want = checks.sssp_distances(rowptr, colidx, values, src)
                rec.verify(what, checks.distance_problems("distances", got, want))


# ---------------------------------------------------------------------------
# paper-ops
# ---------------------------------------------------------------------------


class PaperOps:
    """The paper's Apply, Assign, eWiseMult and SpMSpV, called directly over
    its thread sweep (one locale) and node sweep (24 threads per node)."""

    name = "paper-ops"
    sizes = {
        "full": dict(nnz=1_000_000, capacity=4_000_000, n=100_000,
                     threads=(1, 2, 4, 8, 16, 24, 32), nodes=(1, 2, 4, 8, 16, 32, 64)),
        "tiny": dict(nnz=4_000, capacity=16_000, n=2_000, threads=(1, 4), nodes=(1, 4)),
    }
    #: the paper's Fig 7/8 (d, f) points
    spmspv_points = ((16, 0.02), (4, 0.02), (16, 0.20))

    def __init__(self, size: str, out_dir) -> None:
        self.cfg = self.sizes[size]

    def setup(self, seed: int, probe):
        cfg = self.cfg
        x = _timed_gen(probe, "random_sparse_vector", random_sparse_vector,
                       cfg["capacity"], nnz=cfg["nnz"], seed=[seed, 1])
        mask = _timed_gen(probe, "random_bool_dense", random_bool_dense,
                          cfg["capacity"], seed=[seed, 2])
        mats = {d: _timed_gen(probe, "erdos_renyi", erdos_renyi, cfg["n"], d, seed=[seed, 3, d])
                for d in sorted({d for d, _ in self.spmspv_points})}
        fronts = {f: _timed_gen(probe, "random_sparse_vector", random_sparse_vector,
                                cfg["n"], density=f, seed=[seed, 4, int(f * 100)])
                  for f in sorted({f for _, f in self.spmspv_points})}
        gen_nnz = x.nnz + mask.values.size + sum(m.nnz for m in mats.values()) + sum(
            v.nnz for v in fronts.values())
        return {"x": x, "mask": mask, "mats": mats, "fronts": fronts, "gen_nnz": gen_nnz,
                "want": {}}

    def _sweep(self):
        """(kind, grid, threads) for every sweep point."""
        for t in self.cfg["threads"]:
            yield "threads", LocaleGrid(1, 1), t
        for p in self.cfg["nodes"]:
            yield "nodes", LocaleGrid.for_count(p), 24

    def run_pass(self, state, probe, rec: Recorder) -> None:
        ledger = CostLedger()
        x, mask = state["x"], state["mask"]
        want_sq = x.values**2
        want_mult = x.indices[mask.values[x.indices]]
        for kind, grid, threads in self._sweep():
            machine = probe.machine(grid=grid, threads_per_locale=threads, ledger=ledger)
            where = f"{kind}={grid.size if kind == 'nodes' else threads}"
            for label, fn in (("apply1", apply1), ("apply2", apply2)):
                got = rec.step("apply", self._apply, probe, fn, x, grid, machine)
                rec.verify(f"{label} {where}", checks.vector_problems(
                    label, got.indices, got.values, x.indices, want_sq))
            for label, fn in (("assign1", assign1), ("assign2", assign2)):
                got = rec.step("assign", self._assign, probe, fn, x, grid, machine)
                rec.verify(f"{label} {where}", checks.vector_problems(
                    label, got.indices, got.values, x.indices, x.values))
            got = rec.step("ewise", self._ewise, probe, x, mask, grid, machine)
            rec.verify(f"ewisemult {where}", checks.vector_problems(
                "ewisemult", got.indices, np.asarray(got.values, dtype=bool),
                want_mult, np.ones(want_mult.size, dtype=bool)))
        for d, f in self.spmspv_points:
            a, xf = state["mats"][d], state["fronts"][f]
            want = state["want"].get((d, f))
            if want is None:
                want = state["want"][(d, f)] = checks.vxm_reference(
                    a.rowptr, a.colidx, a.values, xf.indices, xf.values)
            for kind, grid, threads in self._sweep():
                machine = probe.machine(grid=grid, threads_per_locale=threads, ledger=ledger)
                if kind == "threads":
                    got = rec.step("spmspv_shm", self._spmspv_shm, probe, a, xf, machine)
                else:
                    got = rec.step("spmspv_dist", self._spmspv_dist, probe, a, xf, grid, machine)
                rec.verify(f"x·A d={d} f={f} {kind} {grid.size}x{threads}", checks.vector_problems(
                    "x·A", got.indices, got.values, *want, rtol=1e-12))
        rec.sim.update(sim_counts(ledger))

    # each step distributes its inputs, runs one op and gathers the output

    @staticmethod
    def _apply(probe, fn, x, grid, machine) -> SparseVector:
        xd = _distribute(probe, DistSparseVector, x, grid)
        probe.call("ops.apply", "ops", fn, xd, SQUARE, machine)
        return _gather(probe, xd)

    @staticmethod
    def _assign(probe, fn, x, grid, machine) -> SparseVector:
        src = _distribute(probe, DistSparseVector, x, grid)
        dst = DistSparseVector.empty(x.capacity, grid)
        probe.call("ops.assign", "ops", fn, dst, src, machine)
        return _gather(probe, dst)

    @staticmethod
    def _ewise(probe, x, mask, grid, machine) -> SparseVector:
        xd = _distribute(probe, DistSparseVector, x, grid)
        yd = _distribute(probe, DistDenseVector, mask, grid)
        z, _ = probe.call("ops.ewise", "ops", ewisemult_dist, xd, yd, LAND, machine)
        return _gather(probe, z)

    @staticmethod
    def _spmspv_shm(probe, a, xf, machine) -> SparseVector:
        y, _ = probe.call("ops.spmspv_shm", "ops", spmspv_shm, a, xf, machine)
        return y

    @staticmethod
    def _spmspv_dist(probe, a, xf, grid, machine) -> SparseVector:
        ad = _distribute(probe, DistSparseMatrix, a, grid)
        xd = _distribute(probe, DistSparseVector, xf, grid)
        y, _ = probe.call("ops.spmspv_dist", "ops", spmspv_dist, ad, xd, machine)
        return _gather(probe, y)


WORKLOADS = {w.name: w for w in (AnalyticsER, ServiceMixed, PaperOps)}
