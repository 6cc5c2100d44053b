"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload analytics-er --seed 1 --seconds 10 --trace 0

The process sets itself up single-threaded (BLAS threads 1, the SPMD
pool off, ``REPRO_SCALE`` ignored), generates its inputs from ``--seed``
several times to time set-up, then repeats the workload's fixed script
until ``--seconds`` have passed, checking every answer.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
passes and reports its per-layer metrics, writing the spans as a Chrome
trace under ``perfbench/out/``.  The exit code is non-zero when any check
fails.
"""

from __future__ import annotations

import os

# isolation: fixed before numpy or the library is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_SPMD"] = "0"
for _var in ("REPRO_SCALE", "REPRO_FASTPATH"):
    os.environ.pop(_var, None)

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: set-ups per run, ``setup_s`` being their median: at least the minimum,
#: and cheap set-ups repeat until their total reaches the budget
SETUP_REPEATS_MIN, SETUP_REPEATS_MAX, SETUP_BUDGET_S = 3, 200, 5.0
#: passes per run, whatever ``--seconds``: each step's median needs three
#: (and a traced run then has a traced pass between two untraced ones)
MIN_PASSES = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _l3_bytes() -> int:
    """The host's L3 size as sysfs reports it (0 when unknown)."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip().upper()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        return int(size.rstrip("KM")) * scale
    return 0


def provenance() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
    }


def _median_by(items, key):
    """The lower-median item under ``key``."""
    ranked = sorted(items, key=key)
    return ranked[(len(ranked) - 1) // 2]


def end_to_end(setup_times, passes) -> dict[str, float]:
    import numpy as np

    steps = [s for rec in passes for _, s in rec.steps]
    # every pass runs the same script: take each step's median over the
    # passes, so a burst of host noise in one pass is outvoted step by step
    by_position = zip(*([s for _, s in rec.steps] for rec in passes))
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": sum(statistics.median(times) for times in by_position),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_p50_ms": float(np.percentile(steps, 50)) * 1e3,
        "step_p90_ms": float(np.percentile(steps, 90)) * 1e3,
    }


def per_layer(tracer, state, setup_runs, untraced, traced) -> dict[str, float]:
    """Per-layer numbers from the median traced pass and the last set-up."""
    def run_s(rec):
        return sum(s for _, s in rec.steps)

    rec = _median_by(traced, run_s)
    s = tracer.summary(f"pass-{rec.index}")
    setup = tracer.summary(f"setup-{setup_runs - 1}")
    wall, calls = s["wall"], s["calls"]
    gen_s = sum(v for k, v in setup["wall"].items() if k.startswith("generators."))
    out = {
        "generators.wall_s": gen_s,
        "generators.nnz_per_s": state["gen_nnz"] / gen_s if gen_s else 0.0,
        "distributed.setup_s": setup["wall"].get("distributed.from_global", 0.0),
        "distributed.from_global_s": wall.get("distributed.from_global", 0.0),
        "distributed.from_global.calls": calls.get("distributed.from_global", 0),
        "exec.self_s": s["self"]["exec"],
        "trace.run_s": run_s(rec),
        "trace.overhead_frac": statistics.median(map(run_s, traced))
        / statistics.median(map(run_s, untraced)) - 1.0,
        "trace.spans": sum(calls.values()),
    }
    for name, seconds in wall.items():
        if name.startswith("step."):
            continue
        out[f"{name}.wall_s"] = seconds
        out[f"{name}.calls"] = calls[name]
    for layer, seconds in s["self"].items():
        if layer != "exec":  # reported as exec.self_s
            out[f"self.{layer}_s"] = seconds
    out.update(rec.sim)
    out.update(rec.layer)
    hits = rec.sim.get("dispatch.plan_cache.hits", 0.0)
    lookups = hits + rec.sim.get("dispatch.plan_cache.misses", 0.0)
    out["dispatch.plan_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    bfs_s = wall.get("algorithms.bfs", 0.0)
    pr_s = wall.get("algorithms.pagerank", 0.0)
    out["algorithms.bfs.teps"] = rec.layer.get("algorithms.bfs.edges", 0) / bfs_s if bfs_s else 0.0
    out["algorithms.pagerank.edges_per_s"] = (
        rec.layer.get("algorithms.pagerank.edges", 0) / pr_s if pr_s else 0.0
    )
    queries = rec.layer.get("service.queries", 0)
    out["service.queries_per_s"] = queries / run_s(rec) if queries else 0.0
    return out


def select(declared: list[dict], values: dict[str, float]) -> dict:
    """Exactly the declared metrics, each with its unit.

    A simulated component the declaration does not list is folded into
    ``runtime.sim.other_s``; a layer the workload never touches reads 0.
    """
    names = {m["name"] for m in declared}
    other = sum(
        v for k, v in values.items()
        if k.startswith("runtime.sim.") and k.endswith("_s") and k not in names
    )
    values = dict(values, **{"runtime.sim.other_s": other})
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is the self-test's smoke size")
    ap.add_argument("--corrupt", default="",
                    help="self-test only: corrupt the first bfs, pagerank or service "
                    "answer before it is checked")
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no library source under {root / 'src'}; run from the repository root")
    if not spec_path.is_file():
        _fail(f"no {spec_path.name} in {root}")
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(root / "src"), str(HERE)]

    from probes import Probe
    from spans import Tracer
    from workloads import WORKLOADS, Recorder
    from repro.runtime.telemetry import registry

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.size, out_dir)
    tracer = Tracer() if args.trace else None
    probe = Probe(tracer)
    plain = Probe(None)

    failed = attempted = 0
    problems: list[str] = []
    setup_times, passes = [], []
    state = None
    try:
        while len(setup_times) < SETUP_REPEATS_MIN or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_REPEATS_MAX
        ):
            state = None
            gc.collect()
            if tracer is not None:
                tracer.run_id = f"setup-{len(setup_times)}"
            t0 = time.perf_counter()
            state = workload.setup(args.seed, probe)
            setup_times.append(time.perf_counter() - t0)

        start = time.perf_counter()
        while True:
            index = len(passes)
            traced = tracer is not None and index % 2 == 1
            registry.reset()
            gc.collect()
            if tracer is not None:
                tracer.run_id = f"pass-{index}"
            rec = Recorder(tracer if traced else None, index=index,
                           corrupt=args.corrupt if index == 0 else "")
            workload.run_pass(state, probe if traced else plain, rec)
            passes.append(rec)
            done = time.perf_counter() - start >= args.seconds
            if done and len(passes) >= MIN_PASSES:
                break
    except Exception:  # the run's boundary: count the failure and report it
        traceback.print_exc()
        failed += 1
        attempted += 1
        problems.append("exception during the run (traceback above)")

    for rec in passes:
        attempted += rec.attempted
        failed += rec.failed
        problems.extend(rec.problems)
        attempted += 1
        if rec.sim != passes[0].sim:
            failed += 1
            diff = sorted(k for k in rec.sim if rec.sim.get(k) != passes[0].sim.get(k))
            problems.append(f"pass {rec.index}: simulated counts differ from pass 0: {diff}")

    metrics: dict[str, float] = {}
    if passes and not problems:
        if args.trace:
            untraced = [r for r in passes if r.tracer is None]
            traced = [r for r in passes if r.tracer is not None]
            metrics = per_layer(tracer, state, len(setup_times), untraced, traced)
            meta = {"workload": args.workload, "seed": args.seed, **provenance()}
            metrics["trace.wall_trace_bytes"] = tracer.write_chrome_trace(
                out_dir / f"{args.workload}.wall-trace.json", meta
            )
            declared = spec["per_layer"]
        else:
            metrics = end_to_end(setup_times, passes)
            declared = spec["end_to_end"]
        metrics = select(declared, metrics)

    for p in problems[:20]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": len(passes),
        "setup_runs": len(setup_times),
        "steps": sum(len(r.steps) for r in passes),
        "pass_s": [round(sum(s for _, s in r.steps), 4) for r in passes],
        "setup_s": [round(s, 4) for s in setup_times],
        **provenance(),
    }
    print(json.dumps({"info": info}))
    correct = failed == 0 and bool(passes)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
