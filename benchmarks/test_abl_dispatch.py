"""Ablation — cost-model dispatch vs forced push / forced pull.

CombBLAS 2.0's direction-optimization result, replayed through this
library's dispatch engine: on a BFS-style masked SpMSpV (the mask plays
the visited set), forced push wins while the frontier is sparse, forced
pull wins once it is dense, and the cost-model ``auto`` mode is expected
to track whichever is cheaper at *every* frontier density — within the
slack of its only estimated quantity (the collision-model output size).

Every decision is also asserted to be visible as a ``dispatch[vxm]``
span in the machine's :class:`~repro.runtime.trace.Trace`.
"""

import numpy as np
import pytest

from repro.bench.harness import Series, scaled_nnz
from repro.generators import erdos_renyi, random_sparse_vector
from repro.ops.dispatch import Dispatcher
from repro.runtime import CostLedger, LocaleGrid, Machine, Trace, shared_machine

from _common import emit

DENSITIES = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.5]
MODES = ["push", "pull", "auto"]


@pytest.fixture(scope="module")
def workload():
    n = scaled_nnz(160_000, minimum=20_000) // 8
    return erdos_renyi(n, 8, seed=3)


def _visited_mask(n: int, density: float, rng) -> np.ndarray:
    """BFS-style unvisited mask: the visited set grows with the frontier."""
    visited = np.zeros(n, dtype=bool)
    visited[rng.choice(n, int(min(2 * density, 0.9) * n), replace=False)] = True
    return ~visited


@pytest.fixture(scope="module")
def sweep(workload):
    a = workload
    n = a.nrows
    rng = np.random.default_rng(7)
    totals = {mode: [] for mode in MODES}
    machines = {}
    dispatchers = {}
    for dens in DENSITIES:
        x = random_sparse_vector(n, density=dens, seed=11)
        mask = _visited_mask(n, dens, rng)
        for mode in MODES:
            m = machines.setdefault(
                mode,
                Machine(
                    grid=LocaleGrid(1, 1),
                    threads_per_locale=24,
                    ledger=CostLedger(),
                ),
            )
            if mode not in dispatchers:
                dispatchers[mode] = Dispatcher(m, mode=mode)
                dispatchers[mode].transpose_of(a)  # warm Aᵀ, billed nothing
            disp = dispatchers[mode]
            _, b = disp.vxm(a, x, mask=mask)
            totals[mode].append(b.total)
    series = [Series(mode, DENSITIES, totals[mode]) for mode in MODES]
    return series, machines, dispatchers


def test_ablation_dispatch_direction_optimization(benchmark, sweep, workload):
    series, machines, dispatchers = sweep
    push, pull, auto = series
    emit(
        "abl_dispatch",
        "Ablation: forced push vs forced pull vs cost-model dispatch",
        "frontier density",
        series,
    )

    # auto never loses to either forced direction (1.1x absorbs the
    # collision-model output estimate, the one non-exact input)
    for i, dens in enumerate(DENSITIES):
        floor = min(push.ys[i], pull.ys[i])
        assert auto.ys[i] <= floor * 1.1, f"auto loses at density {dens}"

    # the directions genuinely trade places across the sweep...
    assert push.y_at(0.001) < pull.y_at(0.001)
    assert pull.y_at(0.5) < push.y_at(0.5)
    # ...and auto actually switches, rather than riding one direction
    chosen = [d.direction for d in dispatchers["auto"].decisions]
    assert chosen[0] == "push"
    assert chosen[-1] == "pull"

    # every decision is observable as a named Trace span
    spans = Trace(machines["auto"].ledger).spans
    dispatch_spans = [s for s in spans if s.label == "dispatch[vxm]"]
    assert len(dispatch_spans) == len(DENSITIES)
    assert {s.component for s in dispatch_spans} == set(
        d.chosen for d in dispatchers["auto"].decisions
    )

    a = workload
    x = random_sparse_vector(a.nrows, density=0.03, seed=11)
    machine = shared_machine(24)
    disp = Dispatcher(machine)
    disp.transpose_of(a)
    benchmark(lambda: disp.vxm(a, x))
