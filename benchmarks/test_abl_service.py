"""Ablation — query service: batched multi-source traversals vs
sequential single-source runs.

The service's headline claim: N compatible queries coalesced into one
frontier-matrix run cost far less simulated time than N independent
traversals — the speedup is the whole justification for the admission
window — and a result-cache hit at an unchanged mutation epoch costs
essentially nothing.  The sweep lives in :mod:`repro.bench.ablations`
(``run_service``) so the perf-regression gate re-runs the identical
measurement against the checked-in baseline; this file adds the
qualitative assertions, the figure, and persists the trajectory to
``benchmarks/results/BENCH_service.json`` through the versioned schema.
"""

import numpy as np
import pytest

from repro.bench.ablations import (
    SERVICE_BATCH_SPEEDUP_FLOOR,
    SERVICE_SOURCE_SWEEP,
    run_service,
    service_workload,
)
from repro.bench.harness import Series
from repro.bench.schema import dump_bench
from repro.algorithms import bfs_levels_batch
from repro.exec import ShmBackend

from _common import RESULTS_DIR, emit


@pytest.fixture(scope="module")
def payload():
    """One full sweep, shared by every assertion and the JSON writer —
    the exact payload the regression gate re-runs."""
    return run_service()


def test_batched_exact_everywhere(payload):
    """Every batched row matched its sequential run bit-for-bit — the
    speedup is never bought with approximation."""
    for where, row in payload["results"]["batching"].items():
        assert row["exact"], where


def test_batching_wins_at_depth(payload):
    """The acceptance claim: at ≥ 8 concurrent sources a coalesced run
    is at least 2× cheaper (simulated seconds) than sequential, for both
    traversal families."""
    for algo in ("bfs", "sssp"):
        for ns in (s for s in SERVICE_SOURCE_SWEEP if s >= 8):
            row = payload["results"]["batching"][f"{algo}/s{ns}"]
            assert (
                row["sequential_s"]
                >= SERVICE_BATCH_SPEEDUP_FLOOR * row["batched_s"]
            ), row


def test_advantage_grows_with_concurrency(payload):
    """More same-window sources amortize better: the speedup is
    monotonically nondecreasing along the sweep."""
    for algo in ("bfs", "sssp"):
        ratios = [
            payload["results"]["batching"][f"{algo}/s{ns}"]["speedup"]
            for ns in SERVICE_SOURCE_SWEEP
        ]
        assert all(r is not None for r in ratios)
        assert ratios == sorted(ratios), (algo, ratios)


def test_cache_hit_is_free(payload):
    """An identical query at the same epoch re-executes nothing: its
    ledger slice is empty and its virtual latency zero, while the warm
    run really paid for the traversal."""
    cache = payload["results"]["cache"]
    assert cache["hit_via"] == "cache"
    assert cache["warm_exec_s"] > 0.0
    assert cache["cache_exec_s"] == 0.0
    assert cache["cache_latency_s"] == 0.0


def test_service_figure(payload):
    """One figure: batched vs sequential simulated seconds over
    concurrent sources, per algorithm."""
    batching = payload["results"]["batching"]
    series = []
    for algo in ("bfs", "sssp"):
        for metric in ("batched_s", "sequential_s"):
            series.append(
                Series(
                    f"{algo}:{metric[:-2]}",
                    list(SERVICE_SOURCE_SWEEP),
                    [
                        batching[f"{algo}/s{ns}"][metric]
                        for ns in SERVICE_SOURCE_SWEEP
                    ],
                )
            )
    emit(
        "abl_service",
        "Ablation: batched multi-source vs sequential over concurrency",
        "concurrent sources",
        series,
    )


def test_write_bench_json(payload, benchmark):
    """Persist the perf trajectory (runs after the payload-consuming
    tests) and track the real multi-source frontier kernel under
    pytest-benchmark."""
    out = dump_bench(payload, RESULTS_DIR / "BENCH_service.json")
    assert out.exists()
    print(f"\nwrote {out}")
    a = service_workload()
    b = ShmBackend()
    h = b.matrix(a)
    sources = np.arange(8, dtype=np.int64)
    benchmark(lambda: bfs_levels_batch(h, sources, backend=b))
