#!/usr/bin/env python
"""Cost tracing: where does a distributed BFS spend its simulated time?

Attaches a :class:`~repro.runtime.CostLedger` to the machine, runs the
distributed BFS, and renders the resulting :class:`~repro.runtime.Trace`
as an ASCII Gantt chart — the per-iteration, per-component view behind the
aggregate numbers of the paper's Figs 8-9.

Run: ``python examples/cost_tracing.py``
"""

from repro.algebra.functional import MAX
from repro.algorithms import bfs_levels
from repro.exec import DistBackend
from repro.generators import erdos_renyi
from repro.ops import ewiseadd_mm
from repro.runtime import CostLedger, LocaleGrid, Machine, Trace


def main() -> None:
    a = erdos_renyi(30_000, 8, seed=5)
    graph = ewiseadd_mm(a, a.transposed(), MAX)
    grid = LocaleGrid.for_count(16)
    ledger = CostLedger()
    machine = Machine(grid=grid, threads_per_locale=24, ledger=ledger)

    levels = bfs_levels(graph, 0, backend=DistBackend(machine))
    print(
        f"BFS on {graph.nrows} vertices / 16 nodes: "
        f"{int((levels >= 0).sum())} reached, {len(ledger)} operations recorded\n"
    )

    trace = Trace(ledger)
    print(trace.render(width=56))

    print("\nper-component totals:")
    for comp, secs in sorted(trace.by_component().items(), key=lambda kv: -kv[1]):
        print(f"  {comp:>16}: {secs * 1e3:8.3f} ms")

    print("\nthe three longest spans:")
    for s in trace.top(3):
        print(f"  {s.label}:{s.component} — {s.duration * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
