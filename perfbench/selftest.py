"""Self-test of the benchmark, at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that:

* every workload, untraced and traced, passes its output checks and
  prints exactly the metrics ``BENCHMARK.json`` declares, each with its
  unit, end-to-end values all above 0;
* two traced runs with one seed repeat every simulated-time, comm and
  ledger count bit-for-bit;
* the traced run writes a loadable Chrome trace;
* a corrupted BFS level, PageRank score or service answer fails the
  check and the exit code;
* the command fails, printing no result, where the library is absent.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics that count simulated work: they must repeat exactly
EXACT_PREFIXES = (
    "runtime.sim", "runtime.record.calls", "comm.", "dispatch.decisions",
    "dispatch.plan_cache.hit_ratio", "algorithms.pagerank.iters", "streaming.batches",
    "streaming.edges", "service.batches", "service.batch_size_mean",
    "service.cache_hit_ratio", "service.rejected", "service.virtual_latency",
)


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest: FAILED {what}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok   {what}")


def check_metrics(workload: str, trace: int) -> dict:
    code, out = run(workload, "--trace", str(trace))
    res = result(out)
    expect(code == 0 and res["correct"] and res["failed"] == 0,
           f"{workload} trace={trace} passes its checks")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    expect(list(got) == [m["name"] for m in declared],
           f"{workload} trace={trace} emits exactly the declared metrics")
    expect(all(got[m["name"]]["unit"] == m["unit"] and isinstance(got[m["name"]]["value"], float)
               for m in declared), f"{workload} trace={trace} gives every metric its unit")
    if not trace:
        expect(all(v["value"] > 0 for v in got.values()),
               f"{workload} end-to-end metrics are all above 0")
    return {k: v["value"] for k, v in got.items()}


def main() -> int:
    for workload in WORKLOADS:
        check_metrics(workload, 0)
        first = check_metrics(workload, 1)
        second = check_metrics(workload, 1)
        exact = [k for k in first if k.startswith(EXACT_PREFIXES) or k.endswith(".calls")]
        expect(all(first[k] == second[k] for k in exact),
               f"{workload}: {len(exact)} simulated and count metrics repeat exactly")
        trace_path = HERE / "out" / f"{workload}.wall-trace.json"
        events = json.loads(trace_path.read_text())["traceEvents"]
        expect(bool(events) and all({"name", "ts", "dur", "args"} <= e.keys() for e in events),
               f"{workload}: the wall-time Chrome trace loads")

    for workload, kind in (("analytics-er", "bfs"), ("analytics-er", "pagerank"),
                           ("service-mixed", "service")):
        code, out = run(workload, "--trace", "0", "--corrupt", kind)
        res = result(out)
        expect(code != 0 and not res["correct"] and res["failed"] >= 1,
               f"a corrupted {kind} answer fails the check")

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the library the command fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
