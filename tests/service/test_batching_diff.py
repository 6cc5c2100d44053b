"""Differential property suite: batched multi-source ≡ sequential.

The acceptance bar of the query service: a multi-source run the batching
planner coalesces produces, per source, results *bit-identical* to N
independent single-source runs of the sequential algorithms
(:func:`repro.algorithms.bfs_levels` / :func:`repro.algorithms.sssp`) —
on the shared-memory backend, on the distributed backend across locale
grids (square and not), and under covered fault plans (whose retries
must never perturb payloads).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    NegativeCycleError,
    bfs_levels,
    bfs_levels_batch,
    sssp,
    sssp_batch,
)
from repro.exec import DistBackend, ShmBackend
from repro.generators import erdos_renyi
from repro.runtime import CostLedger, FaultInjector, LocaleGrid, Machine
from repro.runtime.telemetry.registry import MetricsRegistry
from repro.service import GraphQueryService, QuerySpec
from repro.sparse.csr import CSRMatrix
from tests.strategies import PROFILE_FAST, PROFILE_SLOW, covered_setups

pytestmark = pytest.mark.service


def weighted(a: CSRMatrix, seed: int) -> CSRMatrix:
    """Strictly positive random weights (SSSP-meaningful, BFS-neutral)."""
    rng = np.random.default_rng(seed)
    return CSRMatrix.from_triples(
        a.nrows, a.ncols, a.row_indices(), a.colidx,
        rng.uniform(0.5, 2.0, a.nnz),
    )


@st.composite
def query_workloads(draw):
    """(graph, grid, sources): an ER graph plus 1–6 query sources."""
    n = draw(st.integers(6, 32))
    deg = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**20))
    p = draw(st.integers(1, 9))
    ns = draw(st.integers(1, 6))
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=ns, max_size=ns)
    )
    a = weighted(erdos_renyi(n, deg, seed=seed), seed=seed + 1)
    return a, LocaleGrid.for_count(p), sources


def dist_backend(grid, faults=None) -> DistBackend:
    return DistBackend(
        Machine(grid=grid, threads_per_locale=2, ledger=CostLedger(), faults=faults)
    )


def reference(algo: str, a: CSRMatrix, source: int) -> np.ndarray:
    b = ShmBackend()
    if algo == "bfs":
        return bfs_levels(a, source, backend=b)
    return sssp(a, source, check_negative_cycles=False, backend=b)


class TestMultiSourceCores:
    """The cores directly: every row ≡ the sequential run, bit for bit."""

    @settings(PROFILE_FAST, deadline=None)
    @given(query_workloads(), st.sampled_from(["bfs", "sssp"]))
    def test_shm_rows_equal_sequential(self, wl, algo):
        a, _, sources = wl
        b = ShmBackend()
        core = bfs_levels_batch if algo == "bfs" else sssp_batch
        rows = core(b.matrix(a), np.asarray(sources), backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    @settings(PROFILE_SLOW, deadline=None)
    @given(query_workloads(), st.sampled_from(["bfs", "sssp"]))
    def test_dist_rows_equal_sequential(self, wl, algo):
        a, grid, sources = wl
        b = dist_backend(grid)
        core = bfs_levels_batch if algo == "bfs" else sssp_batch
        rows = core(b.matrix(a), np.asarray(sources), backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    @settings(PROFILE_SLOW, deadline=None)
    @given(query_workloads(), covered_setups(), st.sampled_from(["bfs", "sssp"]))
    def test_dist_under_covered_faults_equal_sequential(self, wl, setup, algo):
        """Covered fault plans retry transparently: the batched results
        still match the fault-free sequential reference bit for bit."""
        a, grid, sources = wl
        plan, policy = setup
        b = dist_backend(grid, faults=FaultInjector(plan, policy))
        core = bfs_levels_batch if algo == "bfs" else sssp_batch
        rows = core(b.matrix(a), np.asarray(sources), backend=b)
        for i, s in enumerate(sources):
            np.testing.assert_array_equal(rows[i], reference(algo, a, s))

    def test_duplicate_sources_get_identical_rows(self):
        a = weighted(erdos_renyi(24, 3, seed=9), seed=10)
        b = ShmBackend()
        rows = bfs_levels_batch(b.matrix(a), np.array([5, 5, 5]), backend=b)
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[0], rows[2])

    def test_empty_source_list(self):
        a = erdos_renyi(8, 2, seed=1)
        b = ShmBackend()
        empty = np.array([], dtype=np.int64)
        assert bfs_levels_batch(b.matrix(a), empty, backend=b).shape == (0, 8)
        assert sssp_batch(b.matrix(a), empty, backend=b).shape == (0, 8)

    def test_out_of_range_source_raises(self):
        a = erdos_renyi(8, 2, seed=1)
        b = ShmBackend()
        with pytest.raises(IndexError):
            bfs_levels_batch(b.matrix(a), np.array([8]), backend=b)
        with pytest.raises(IndexError):
            sssp_batch(b.matrix(a), np.array([-1]), backend=b)

    def test_sssp_requires_square(self):
        b = ShmBackend()
        rect = CSRMatrix.from_triples(2, 3, [0], [1], [1.0])
        with pytest.raises(ValueError):
            sssp_batch(b.matrix(rect), np.array([0]), backend=b)


class TestServiceBatching:
    """End to end through the service: the planner actually coalesces,
    and every served result is the sequential answer."""

    @settings(PROFILE_FAST, deadline=None)
    @given(query_workloads(), st.sampled_from(["bfs", "sssp"]))
    def test_same_window_queries_coalesce_and_match(self, wl, algo):
        a, _, sources = wl
        svc = GraphQueryService(
            ShmBackend(
                Machine(grid=LocaleGrid(1, 1), threads_per_locale=4, ledger=CostLedger())
            ),
            a,
            registry=MetricsRegistry(),
        )
        reqs = [
            svc.submit(f"t{i}", QuerySpec(algo, s), at=0.0)
            for i, s in enumerate(sources)
        ]
        svc.run()
        for r in reqs:
            assert r.status == "done"
            assert r.batch_size == len(sources)
            assert r.via == ("batch" if len(sources) > 1 else "solo")
            np.testing.assert_array_equal(
                r.result, reference(algo, a, r.query.source)
            )

    @settings(PROFILE_SLOW, deadline=None)
    @given(query_workloads(), covered_setups())
    def test_dist_service_under_faults_matches(self, wl, setup):
        a, grid, sources = wl
        plan, policy = setup
        svc = GraphQueryService(
            dist_backend(grid, faults=FaultInjector(plan, policy)),
            a,
            registry=MetricsRegistry(),
        )
        reqs = [
            svc.submit("t", QuerySpec("bfs", s), at=0.0) for s in sources
        ]
        svc.run()
        for r in reqs:
            assert r.status == "done"
            np.testing.assert_array_equal(
                r.result, reference("bfs", a, r.query.source)
            )

    def test_incompatible_algos_do_not_coalesce(self):
        a = weighted(erdos_renyi(32, 3, seed=4), seed=5)
        svc = GraphQueryService(ShmBackend(), a, registry=MetricsRegistry())
        rb = svc.submit("t", QuerySpec("bfs", 0), at=0.0)
        rs = svc.submit("t", QuerySpec("sssp", 0), at=0.0)
        svc.run()
        assert rb.batch_size == 1 and rs.batch_size == 1
        assert svc.stats.batches == 2

    def test_negative_cycle_raises_out_of_run(self):
        """A negative cycle is an error, not a ``done`` query with wrong
        distances: it propagates out of ``run()`` as from ``sssp``."""
        a = CSRMatrix.from_triples(3, 3, [0, 1, 2], [1, 2, 1], [1.0, -3.0, 1.0])
        svc = GraphQueryService(ShmBackend(), a, registry=MetricsRegistry())
        req = svc.submit("t", QuerySpec("sssp", 0), at=0.0)
        with pytest.raises(NegativeCycleError):
            svc.run()
        assert req.status != "done"

    def test_arrivals_outside_window_run_separately(self):
        a = weighted(erdos_renyi(32, 3, seed=4), seed=5)
        svc = GraphQueryService(
            ShmBackend(
                Machine(grid=LocaleGrid(1, 1), threads_per_locale=4, ledger=CostLedger())
            ),
            a,
            window=1.0e-6,
            registry=MetricsRegistry(),
        )
        r1 = svc.submit("t", QuerySpec("bfs", 0), at=0.0)
        r2 = svc.submit("t", QuerySpec("bfs", 1), at=1.0)
        svc.run()
        assert r1.via == "solo" and r2.via == "solo"
        assert svc.stats.batches == 2
