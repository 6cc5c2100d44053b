"""Golden-baseline perf-regression gate over the ``BENCH_*.json`` files.

The checked-in baselines under ``benchmarks/results/`` record every
ablation's simulated-time trajectory.  Because those numbers are
deterministic (seeded workloads, pure cost model), a re-run that differs
*upward* beyond tolerance is a genuine performance regression introduced
by code — not noise.  This module is the enforcement:

1. discover baselines (``BENCH_<name>.json``) in the results directory;
2. re-run the matching ablation harness from
   :data:`repro.bench.ablations.RERUNNERS`;
3. diff every gateable metric (:func:`repro.bench.schema.simulated_metrics`
   — simulated-seconds leaves, gated at ``tolerance``, default 10%).
   Wall-clock leaves are host-dependent and never gated here; the
   end-to-end wall-clock benchmark is ``perfbench/``;
4. fail if any metric regressed beyond its tolerance, vanished, or the
   workload configs no longer match the baseline's.

Improvements never fail the gate — they are reported so the baseline can
be refreshed (re-run ``make bench`` and commit the new JSON).

``--check`` runs the *structural* half only: every baseline must load,
validate, expose gateable metrics, and have a registered re-runner, and
every registered re-runner must have a baseline — a sub-second smoke
test (wired into the test suite) that catches schema drift, unwired
benches and missing baselines without paying for a full
re-measurement.

Wired into ``make bench-gate`` and ``python -m repro gate``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from .schema import (
    BenchSchemaError,
    bench_name_from_path,
    load_bench,
    simulated_metrics,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "MetricCheck",
    "GateResult",
    "default_results_dir",
    "available_benches",
    "compare_payloads",
    "check_baselines",
    "run_gate",
    "main",
]

#: default allowed relative regression before a metric fails the gate.
DEFAULT_TOLERANCE = 0.10

#: regressions below this absolute simulated-seconds delta are ignored
#: (guards the ratio test against meaningless jitter on ~0-valued metrics).
ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricCheck:
    """One gated metric's baseline-vs-current comparison."""

    metric: str
    baseline: float
    current: float
    tolerance: float

    @property
    def delta(self) -> float:
        """Absolute change (positive = slower)."""
        return self.current - self.baseline

    @property
    def ratio(self) -> float:
        """current / baseline (1.0 when the baseline is zero and unchanged)."""
        if self.baseline == 0.0:
            return 1.0 if self.current == 0.0 else float("inf")
        return self.current / self.baseline

    @property
    def regressed(self) -> bool:
        """Whether the metric got slower beyond the allowed tolerance."""
        return self.delta > max(self.tolerance * abs(self.baseline), ABS_FLOOR)

    @property
    def improved(self) -> bool:
        """Whether the metric got faster beyond the tolerance (refresh hint)."""
        return -self.delta > max(self.tolerance * abs(self.baseline), ABS_FLOOR)


@dataclass
class GateResult:
    """Outcome of gating one bench (or one comparison)."""

    bench: str
    checks: list[MetricCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricCheck]:
        """Checks that failed the tolerance."""
        return [c for c in self.checks if c.regressed]

    @property
    def improvements(self) -> list[MetricCheck]:
        """Checks that beat the baseline beyond the tolerance."""
        return [c for c in self.checks if c.improved]

    @property
    def passed(self) -> bool:
        """True when nothing regressed and nothing structural went wrong."""
        return not self.regressions and not self.problems

    def render(self) -> str:
        """Human-readable per-bench report."""
        lines = [
            f"[{'PASS' if self.passed else 'FAIL'}] bench {self.bench}: "
            f"{len(self.checks)} metrics, {len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved"
        ]
        for problem in self.problems:
            lines.append(f"  ! {problem}")
        for c in self.regressions:
            lines.append(
                f"  ✗ {c.metric}: {c.baseline:.6g}s -> {c.current:.6g}s "
                f"({c.ratio:.3f}x, tolerance {1 + c.tolerance:.2f}x)"
            )
        for c in self.improvements:
            lines.append(
                f"  ✓ {c.metric}: {c.baseline:.6g}s -> {c.current:.6g}s "
                f"({c.ratio:.3f}x) — consider refreshing the baseline"
            )
        return "\n".join(lines)


def default_results_dir() -> Path:
    """``benchmarks/results/`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def available_benches(results_dir: str | Path | None = None) -> dict[str, Path]:
    """Discover golden baselines: bench name → BENCH file path."""
    results_dir = Path(results_dir) if results_dir else default_results_dir()
    return {
        bench_name_from_path(p): p for p in sorted(results_dir.glob("BENCH_*.json"))
    }


def compare_payloads(
    bench: str,
    baseline: dict,
    current: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateResult:
    """Diff two schema-valid payloads' gateable metrics.

    Simulated-seconds leaves are gated at ``tolerance``; wall-clock leaves
    are informational only.

    Structural drift — changed workload configs, a metric present in the
    baseline but missing from the re-run — is a ``problem`` (gate fails):
    silently comparing different workloads would make the gate vacuous.
    Metrics *added* since the baseline are ignored; they are gated once
    the baseline is refreshed.
    """
    result = GateResult(bench=bench)
    base_cfg = baseline.get("configs")
    cur_cfg = current.get("configs")
    if base_cfg != cur_cfg:
        result.problems.append(
            f"configs changed since baseline (baseline {base_cfg!r} vs "
            f"current {cur_cfg!r}) — refresh the baseline"
        )
        return result
    base_metrics = simulated_metrics(baseline)
    cur_metrics = simulated_metrics(current)
    if not base_metrics:
        result.problems.append("baseline has no gateable simulated-time metrics")
    for metric, base_value in sorted(base_metrics.items()):
        if metric not in cur_metrics:
            result.problems.append(f"metric {metric} missing from re-run")
            continue
        result.checks.append(
            MetricCheck(metric, base_value, cur_metrics[metric], tolerance)
        )
    return result


def check_baselines(
    results_dir: str | Path | None = None,
    *,
    benches: list[str] | None = None,
) -> list[GateResult]:
    """Structural smoke check of the gate's wiring — no re-running.

    Every discovered (or selected) baseline must load, validate against
    the envelope schema, expose at least one gateable simulated metric,
    and have a re-runner registered in
    :data:`repro.bench.ablations.RERUNNERS`.  The check runs both ways:
    when no benches are selected, every registered re-runner must also
    have a baseline — a bench the gate should guard but cannot is a
    failure, not a silent skip.  Sub-second; run from the test suite as
    ``python -m repro gate --check`` so an unwired, missing or
    schema-drifted baseline fails CI without paying for a full
    re-measurement.
    """
    from .ablations import RERUNNERS

    found = available_benches(results_dir)
    if benches is not None:
        missing = sorted(set(benches) - set(found))
        if missing:
            r = GateResult(bench=",".join(missing))
            r.problems.append(f"no baseline file for bench(es): {', '.join(missing)}")
            return [r]
        found = {name: found[name] for name in benches}
    results = []
    if benches is None:
        for name in sorted(set(RERUNNERS) - set(found)):
            r = GateResult(bench=name)
            r.problems.append(
                f"re-runner registered in RERUNNERS but no baseline "
                f"BENCH_{name}.json"
            )
            results.append(r)
    for name, path in sorted(found.items()):
        r = GateResult(bench=name)
        try:
            payload = load_bench(path)
        except (BenchSchemaError, OSError, ValueError) as exc:
            r.problems.append(f"baseline failed to load: {exc}")
            results.append(r)
            continue
        if not simulated_metrics(payload):
            r.problems.append("no gateable simulated-time metrics")
        if name not in RERUNNERS:
            r.problems.append("no re-runner registered in RERUNNERS")
        results.append(r)
    return results


def run_gate(
    results_dir: str | Path | None = None,
    *,
    benches: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[GateResult]:
    """Gate every (or the selected) discovered baseline; returns per-bench
    results.  Baselines with no registered re-runner are skipped with a
    problem-free note so new BENCH files don't break the gate before their
    harness is extracted."""
    from .ablations import RERUNNERS

    found = available_benches(results_dir)
    if benches is not None:
        missing = sorted(set(benches) - set(found))
        if missing:
            r = GateResult(bench=",".join(missing))
            r.problems.append(f"no baseline file for bench(es): {', '.join(missing)}")
            return [r]
        found = {name: found[name] for name in benches}
    results = []
    for name, path in sorted(found.items()):
        rerun = RERUNNERS.get(name)
        if rerun is None:
            continue  # no harness extracted for this baseline yet
        baseline = load_bench(path)
        results.append(compare_payloads(name, baseline, rerun(), tolerance=tolerance))
    return results


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro gate`` delegates here)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro gate",
        description="perf-regression gate over the BENCH_*.json golden baselines",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="baseline directory (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        dest="benches",
        help="gate only this bench (repeatable; default: all discovered)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed relative regression (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="structural smoke check only (schema + wiring), no re-running",
    )
    args = parser.parse_args(argv)
    if args.check:
        results = check_baselines(args.results_dir, benches=args.benches)
        label = "bench-check"
    else:
        results = run_gate(
            args.results_dir, benches=args.benches, tolerance=args.tolerance
        )
        label = "bench-gate"
    if not results:
        print("no gateable baselines found")
        return 1
    for r in results:
        print(r.render())
    failed = [r for r in results if not r.passed]
    print(
        f"\n{label}: {len(results) - len(failed)}/{len(results)} benches passed"
        + (f" — FAILED: {', '.join(r.bench for r in failed)}" if failed else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
