"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``generate`` — write an Erdős–Rényi or R-MAT graph as Matrix Market;
* ``bfs`` / ``cc`` / ``pagerank`` / ``sssp`` / ``triangles`` — run an
  algorithm on a Matrix Market graph (or a generated one) and print results;
* ``spmspv`` — one SpMSpV on a simulated machine with the component
  breakdown (the paper's Fig 7/8 measurement as a one-liner);
* ``telemetry`` — run an algorithm on the simulated machine and export its
  timeline as Chrome ``trace_event`` JSON (Perfetto-loadable) plus metric
  and profile summaries (``docs/observability.md``);
* ``gate`` — the perf-regression gate over ``benchmarks/results/BENCH_*``;
* ``figures`` — regenerate every paper figure (text series);
* ``report`` — write EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the ``repro`` CLI."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="GraphBLAS library + Chapel-runtime simulator "
        "(reproduction of Azad & Buluç, IPDPSW 2017)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random graph as Matrix Market")
    g.add_argument("output", help="output .mtx path")
    g.add_argument("--kind", choices=["er", "rmat"], default="er")
    g.add_argument("--n", type=int, default=1000, help="vertices (er) ")
    g.add_argument("--scale", type=int, default=10, help="log2 vertices (rmat)")
    g.add_argument("--degree", type=float, default=8.0, help="average degree")
    g.add_argument("--seed", type=int, default=0)

    for name, help_text in [
        ("bfs", "breadth-first search levels"),
        ("cc", "connected components"),
        ("pagerank", "PageRank scores"),
        ("sssp", "single-source shortest paths"),
        ("triangles", "triangle count"),
        ("kcore", "k-core decomposition"),
        ("ktruss", "k-truss subgraph (use --k)"),
        ("coloring", "greedy graph colouring"),
        ("mis", "maximal independent set"),
        ("bc", "betweenness centrality"),
    ]:
        a = sub.add_parser(name, help=help_text)
        a.add_argument("graph", help=".mtx file, or 'er:N:D' / 'rmat:SCALE:D'")
        a.add_argument("--source", type=int, default=0, help="source vertex")
        a.add_argument("--seed", type=int, default=0)
        a.add_argument("--top", type=int, default=10, help="rows to print")
        a.add_argument("--k", type=int, default=3, help="k for kcore/ktruss")

    s = sub.add_parser("spmspv", help="one SpMSpV with its simulated breakdown")
    s.add_argument("--n", type=int, default=100_000)
    s.add_argument("--degree", type=float, default=16.0)
    s.add_argument("--density", type=float, default=0.02, help="vector density f")
    s.add_argument("--threads", type=int, default=24)
    s.add_argument("--nodes", type=int, default=1)
    s.add_argument("--sort", choices=["merge", "radix"], default="merge")
    s.add_argument("--comm", choices=["fine", "bulk"], default="fine")
    s.add_argument(
        "--machine",
        choices=["edison", "laptop", "fat-node", "fast-network", "ethernet"],
        default="edison",
        help="machine preset for the cost model",
    )
    s.add_argument("--seed", type=int, default=0)

    t = sub.add_parser(
        "telemetry",
        help="run an algorithm and export its Chrome-trace timeline + metrics",
    )
    t.add_argument(
        "graph",
        nargs="?",
        default="er:2000:8",
        help=".mtx file, or 'er:N:D' / 'rmat:SCALE:D' (default er:2000:8)",
    )
    t.add_argument(
        "--algo",
        choices=["bfs", "cc", "pagerank", "sssp", "triangles"],
        default="bfs",
    )
    t.add_argument("--source", type=int, default=0, help="source vertex")
    t.add_argument("--nodes", type=int, default=4, help="locales (1 = shm backend)")
    t.add_argument("--threads", type=int, default=24)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="transient fault rate (>0 attaches a covered injector, so "
        "retry spans appear in the timeline)",
    )
    t.add_argument("--out", default="trace.json", help="Chrome trace output path")
    t.add_argument("--csv", default=None, help="also write the flat span CSV here")
    t.add_argument("--summary", default=None, help="also write the JSON summary here")
    t.add_argument(
        "--metrics", action="store_true", help="print the metrics registry"
    )
    t.add_argument(
        "--profile", action="store_true", help="print per-op backend tallies"
    )

    gate = sub.add_parser(
        "gate", help="perf-regression gate over the BENCH_*.json baselines"
    )
    gate.add_argument("--results-dir", default=None)
    gate.add_argument("--bench", action="append", dest="benches")
    gate.add_argument("--tolerance", type=float, default=None)
    gate.add_argument(
        "--check",
        action="store_true",
        help="structural smoke check only (schema + wiring), no re-running",
    )

    sub.add_parser("figures", help="regenerate every paper figure (text series)")
    sub.add_parser("report", help="write EXPERIMENTS.md (paper vs measured)")
    return p


def _load_graph(spec: str, seed: int):
    from .generators import erdos_renyi, rmat
    from .io import read_matrix_market

    if spec.startswith("er:"):
        _, n, d = spec.split(":")
        return erdos_renyi(int(n), float(d), seed=seed)
    if spec.startswith("rmat:"):
        _, scale, d = spec.split(":")
        return rmat(int(scale), int(float(d)), seed=seed)
    return read_matrix_market(spec)


def _symmetrized(a):
    from .algebra.functional import MAX, OFFDIAG
    from .ops import ewiseadd_mm

    return ewiseadd_mm(a, a.transposed(), MAX).select(OFFDIAG)


def cmd_generate(args) -> int:
    """Handle ``repro generate``."""
    from .generators import erdos_renyi, rmat
    from .io import write_matrix_market

    if args.kind == "er":
        a = erdos_renyi(args.n, args.degree, seed=args.seed)
    else:
        a = rmat(args.scale, int(args.degree), seed=args.seed)
    write_matrix_market(args.output, a, comment=f"repro generate {args.kind}")
    print(f"wrote {a.nrows}x{a.ncols} matrix, nnz={a.nnz} -> {args.output}")
    return 0


def cmd_algorithm(args) -> int:
    """Handle the algorithm subcommands (bfs/cc/pagerank/sssp/triangles)."""
    from .algorithms import (
        bfs_levels,
        connected_components,
        count_triangles,
        pagerank,
        sssp,
    )

    a = _load_graph(args.graph, args.seed)
    if args.command == "bfs":
        levels = bfs_levels(a, args.source)
        reached = int((levels >= 0).sum())
        print(f"reached {reached}/{a.nrows} vertices; eccentricity {levels.max()}")
        hist = np.bincount(levels[levels >= 0])
        for lvl, count in enumerate(hist[: args.top]):
            print(f"  level {lvl}: {count} vertices")
    elif args.command == "cc":
        labels = connected_components(_symmetrized(a))
        uniq, counts = np.unique(labels, return_counts=True)
        print(f"{uniq.size} components; largest = {counts.max()}")
    elif args.command == "pagerank":
        r = pagerank(a)
        order = np.argsort(r)[::-1][: args.top]
        for v in order:
            print(f"  vertex {v}: {r[v]:.6f}")
    elif args.command == "sssp":
        dist = sssp(a, args.source)
        finite = np.isfinite(dist)
        print(
            f"reachable: {int(finite.sum())}/{a.nrows}; "
            f"max distance {dist[finite].max():.4f}"
        )
    elif args.command == "triangles":
        print(f"triangles: {count_triangles(_symmetrized(a))}")
    elif args.command == "kcore":
        from .algorithms import kcore_decomposition

        core = kcore_decomposition(_symmetrized(a))
        for k in range(int(core.max()) + 1):
            print(f"  coreness {k}: {int((core == k).sum())} vertices")
    elif args.command == "ktruss":
        from .algorithms import ktruss

        t = ktruss(_symmetrized(a), args.k)
        print(f"{args.k}-truss: {t.nnz // 2} edges survive")
    elif args.command == "coloring":
        from .algorithms import greedy_coloring

        colors = greedy_coloring(_symmetrized(a), seed=args.seed)
        print(f"colours used: {int(colors.max()) + 1}")
    elif args.command == "mis":
        from .algorithms import maximal_independent_set

        members = maximal_independent_set(_symmetrized(a), seed=args.seed)
        print(f"independent set size: {int(members.sum())}/{a.nrows}")
    elif args.command == "bc":
        from .algorithms import betweenness_centrality

        bc = betweenness_centrality(a)
        order = np.argsort(bc)[::-1][: args.top]
        for v in order:
            print(f"  vertex {v}: {bc[v]:.2f}")
    return 0


def cmd_spmspv(args) -> int:
    """Handle ``repro spmspv``."""
    from .distributed import DistSparseMatrix, DistSparseVector
    from .generators import erdos_renyi, random_sparse_vector
    from .ops import spmspv_dist, spmspv_shm
    from .runtime import LocaleGrid, Machine, shared_machine

    from .runtime.machines import preset

    cfg = preset(args.machine)
    a = erdos_renyi(args.n, args.degree, seed=args.seed)
    x = random_sparse_vector(args.n, density=args.density, seed=args.seed + 1)
    if args.nodes == 1:
        machine = shared_machine(args.threads, cfg)
        y, b = spmspv_shm(a, x, machine, sort=args.sort)
    else:
        grid = LocaleGrid.for_count(args.nodes)
        machine = Machine(config=cfg, grid=grid, threads_per_locale=args.threads)
        yd, b = spmspv_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
            machine,
            sort=args.sort,
            gather_mode=args.comm,
            scatter_mode=args.comm,
        )
        y = yd.gather()
    print(f"y = x.A: nnz(y) = {y.nnz}")
    print("simulated breakdown:")
    for comp, secs in sorted(b.items()):
        print(f"  {comp:>16}: {secs:.6f} s")
    print(f"  {'total':>16}: {b.total:.6f} s")
    return 0


def cmd_telemetry(args) -> int:
    """Handle ``repro telemetry``: run, trace, export, summarise."""
    from .exec import DistBackend, ShmBackend
    from .runtime import (
        CostLedger,
        FaultInjector,
        FaultPlan,
        LocaleGrid,
        Machine,
        RetryPolicy,
        Trace,
        shared_machine,
        write_chrome_trace,
        write_trace_csv,
        write_trace_summary,
    )
    from .runtime import telemetry as tm

    tm.reset()
    a = _load_graph(args.graph, args.seed)
    faults = None
    if args.fault_rate > 0.0:
        # covered plan: repairs change the timeline, never the result
        faults = FaultInjector(
            FaultPlan(seed=args.seed, transient_rate=args.fault_rate, max_burst=3),
            RetryPolicy(max_attempts=8),
        )
    if args.nodes == 1:
        base = shared_machine(args.threads)
        machine = Machine(
            config=base.config, grid=base.grid, threads_per_locale=args.threads,
            ledger=CostLedger(), faults=faults,
        )
        backend = ShmBackend(machine)
    else:
        machine = Machine(
            grid=LocaleGrid.for_count(args.nodes),
            threads_per_locale=args.threads,
            ledger=CostLedger(),
            faults=faults,
        )
        backend = DistBackend(machine)
    profile = backend.attach_profile()

    from .algorithms import (
        bfs_levels,
        connected_components,
        count_triangles,
        pagerank,
        sssp,
    )

    if args.algo == "bfs":
        levels = bfs_levels(a, args.source, backend=backend)
        print(f"bfs: reached {int((levels >= 0).sum())}/{a.nrows} vertices")
    elif args.algo == "cc":
        labels = connected_components(_symmetrized(a), backend=backend)
        print(f"cc: {np.unique(labels).size} components")
    elif args.algo == "pagerank":
        r = pagerank(a, backend=backend)
        print(f"pagerank: top vertex {int(np.argmax(r))}")
    elif args.algo == "sssp":
        dist = sssp(a, args.source, backend=backend)
        print(f"sssp: reachable {int(np.isfinite(dist).sum())}/{a.nrows}")
    else:
        print(f"triangles: {count_triangles(_symmetrized(a), backend=backend)}")

    trace = Trace(machine.ledger)
    out = write_chrome_trace(trace, args.out, machine=machine)
    retries = sum(1 for s in trace.spans if s.component == "Retries")
    print(
        f"trace: {len(trace.roots)} ops, {len(trace.spans)} spans "
        f"({retries} retry spans), makespan {trace.makespan:.6f} s"
    )
    print(f"wrote {out} (open in https://ui.perfetto.dev)")
    if args.csv:
        print(f"wrote {write_trace_csv(trace, args.csv)}")
    if args.summary:
        print(f"wrote {write_trace_summary(trace, args.summary)}")
    if args.profile:
        print("\nbackend op tallies:")
        print(profile.render())
    if args.metrics:
        print("\nmetrics:")
        print(tm.default_registry().render())
    return 0


def main(argv=None) -> int:
    """Command-line entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command in (
        "bfs", "cc", "pagerank", "sssp", "triangles",
        "kcore", "ktruss", "coloring", "mis", "bc",
    ):
        return cmd_algorithm(args)
    if args.command == "spmspv":
        return cmd_spmspv(args)
    if args.command == "telemetry":
        return cmd_telemetry(args)
    if args.command == "gate":
        from .bench.regression import DEFAULT_TOLERANCE, main as gate_main

        gate_argv = []
        if args.results_dir:
            gate_argv += ["--results-dir", args.results_dir]
        for bench in args.benches or []:
            gate_argv += ["--bench", bench]
        gate_argv += [
            "--tolerance",
            str(args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE),
        ]
        if args.check:
            gate_argv += ["--check"]
        return gate_main(gate_argv)
    if args.command == "figures":
        from .bench.figures import main as figures_main

        figures_main()
        return 0
    if args.command == "report":
        from .bench.report import main as report_main

        report_main()
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
