"""Process-wide metrics registry: counters, gauges, histograms.

The simulator already *attributes* time (ledgers, breakdowns, traces);
this module *aggregates* it — and everything else worth counting (bytes
shipped, flush batches, retries, dispatch decisions, backend op tallies)
— into labeled metric series, the way CombBLAS 2.0 instruments its
communication layer and any production service instruments its hot
paths.  Three metric kinds:

* :class:`Counter` — monotonically increasing totals (``inc``);
* :class:`Gauge` — last-write-wins levels (``set`` / ``inc``);
* :class:`Histogram` — value distributions (``observe``) with fixed
  log-spaced buckets plus count/sum/min/max.

Every metric holds *labeled series*: ``m.inc(5, kernel="spmspv_dist",
mode="agg")`` and ``m.inc(5, kernel="mxm_dist", mode="bulk")`` are two
independent series of the same metric.  Series are keyed by the sorted
label items, so label order never matters.

**Scoping.**  A registry carries a scope stack mirroring the ledger's
iteration relabelling (:class:`~repro.exec.backend.IterationScope`):
while ``with registry.scoped("bfs[iter=3]")`` is open, every recorded
series silently gains a ``scope="bfs[iter=3]"`` label (nested scopes
join with ``:``, exactly like nested ledger prefixes).  Reads never
inject the scope — ``total(**labels)`` sums across all series matching
the given label *subset*, so whole-run totals remain one call away.

The module-level default registry (:func:`default_registry`) is what the
runtime instruments; tests grab a private :class:`MetricsRegistry` or
call :func:`reset` for isolation.  The simulator is single-threaded by
construction, so series updates are plain dict writes.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager

__all__ = [
    "MetricError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "default_registry",
    "set_default_registry",
    "counter",
    "gauge",
    "histogram",
    "scoped",
    "snapshot",
    "reset",
]

#: reserved label the scope stack writes; user label sets may not use it.
SCOPE_LABEL = "scope"

LabelKey = tuple[tuple[str, str], ...]


class MetricError(ValueError):
    """Metric misuse: kind clash, reserved label, malformed name."""


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _matches(key: LabelKey, subset: LabelKey) -> bool:
    have = dict(key)
    return all(have.get(k) == v for k, v in subset)


class Metric:
    """Common series bookkeeping; concrete kinds add their write verbs."""

    kind = "metric"

    def __init__(self, name: str, registry: "MetricsRegistry", help: str = "") -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._series: dict[LabelKey, object] = {}
        # memoized (scope, kwargs-items) -> canonical sorted label key.
        # Pure caching of a deterministic transform: the sorted+stringified
        # key is identical with or without the cache, it just skips the
        # per-call sort/str churn on the hot counters.
        self._key_cache: dict[tuple, LabelKey] = {}

    # -- label plumbing ----------------------------------------------------

    def _write_key(self, labels: dict[str, object]) -> LabelKey:
        if SCOPE_LABEL in labels:
            raise MetricError(
                f"label {SCOPE_LABEL!r} is reserved for the scope stack"
            )
        scope = self._registry.scope_label()
        try:
            ck = (scope, tuple(labels.items()))
            cached = self._key_cache.get(ck)
        except TypeError:  # unhashable label value — fall through
            ck = None
            cached = None
        if cached is not None:
            return cached
        if scope is not None:
            labels = dict(labels, **{SCOPE_LABEL: scope})
        key = _label_key(labels)
        if ck is not None and len(self._key_cache) < 8192:
            self._key_cache[ck] = key
        return key

    # -- reads -------------------------------------------------------------

    def labelsets(self) -> list[dict[str, str]]:
        """Every recorded series' labels (scope label included)."""
        return [dict(k) for k in self._series]

    def _series_value(self, stored: object) -> float:
        return float(stored)  # counters/gauges store a bare float

    def value(self, **labels) -> float:
        """The one series matching ``labels`` exactly (0.0 when absent)."""
        stored = self._series.get(_label_key(labels))
        return 0.0 if stored is None else self._series_value(stored)

    def total(self, **labels) -> float:
        """Sum over every series whose labels contain ``labels``.

        With no arguments: the metric's whole-process total across all
        label sets and scopes.
        """
        subset = _label_key(labels)
        return sum(
            self._series_value(v)
            for k, v in self._series.items()
            if _matches(k, subset)
        )

    def clear(self) -> None:
        """Drop every recorded series."""
        self._series.clear()

    def __len__(self) -> int:
        return len(self._series)

    def _snapshot_series(self, stored: object) -> object:
        return self._series_value(stored)

    def snapshot(self) -> list[dict]:
        """All series as ``{"labels": {...}, "value": ...}`` rows."""
        return [
            {"labels": dict(k), "value": self._snapshot_series(v)}
            for k, v in sorted(self._series.items())
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, series={len(self._series)})"


class Counter(Metric):
    """A monotonically increasing total per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the labeled series."""
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease ({amount})")
        key = self._write_key(labels)
        self._series[key] = self._series.get(key, 0.0) + float(amount)


class Gauge(Metric):
    """A last-write-wins level per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the labeled series to ``value``."""
        self._series[self._write_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust the labeled series by ``amount`` (may be negative)."""
        key = self._write_key(labels)
        self._series[key] = self._series.get(key, 0.0) + float(amount)


#: log-spaced simulated-seconds buckets: 1 ns … 100 s, one per decade.
DEFAULT_BUCKETS = tuple(10.0**e for e in range(-9, 3))


class Histogram(Metric):
    """A value distribution per label set (count/sum/min/max + buckets)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, registry, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricError(f"histogram {self.name!r} needs at least one bucket")

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labeled series."""
        key = self._write_key(labels)
        stored = self._series.get(key)
        if stored is None:
            stored = self._series[key] = {
                "count": 0,
                "sum": 0.0,
                "min": float("inf"),
                "max": float("-inf"),
                # counts[i] = observations <= buckets[i]; last slot = overflow
                "bucket_counts": [0] * (len(self.buckets) + 1),
            }
        value = float(value)
        stored["count"] += 1
        stored["sum"] += value
        stored["min"] = min(stored["min"], value)
        stored["max"] = max(stored["max"], value)
        stored["bucket_counts"][bisect.bisect_left(self.buckets, value)] += 1

    def _series_value(self, stored: object) -> float:
        return float(stored["sum"])

    def count(self, **labels) -> int:
        """Total observations over series matching the label subset."""
        subset = _label_key(labels)
        return int(
            sum(
                v["count"]
                for k, v in self._series.items()
                if _matches(k, subset)
            )
        )

    def summary(self, **labels) -> dict:
        """count/sum/min/max merged over series matching the subset."""
        subset = _label_key(labels)
        out = {"count": 0, "sum": 0.0, "min": float("inf"), "max": float("-inf")}
        for k, v in self._series.items():
            if not _matches(k, subset):
                continue
            out["count"] += v["count"]
            out["sum"] += v["sum"]
            out["min"] = min(out["min"], v["min"])
            out["max"] = max(out["max"], v["max"])
        if out["count"] == 0:
            out["min"] = out["max"] = 0.0
        return out

    def _snapshot_series(self, stored: object) -> object:
        return {
            "count": stored["count"],
            "sum": stored["sum"],
            "min": stored["min"],
            "max": stored["max"],
            "buckets": dict(
                zip([*map(str, self.buckets), "+inf"], stored["bucket_counts"])
            ),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A namespace of metrics plus the scope stack that labels them."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._scopes: list[str] = []

    # -- metric creation / lookup -----------------------------------------

    def _get(self, name: str, kind: str, help: str, **kw) -> Metric:
        m = self._metrics.get(name)
        if m is not None:
            if m.kind != kind:
                raise MetricError(
                    f"metric {name!r} already registered as {m.kind}, not {kind}"
                )
            return m
        m = self._metrics[name] = _KINDS[kind](name, self, help, **kw)
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        """Fetch (or create) the named counter."""
        return self._get(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Fetch (or create) the named gauge."""
        return self._get(name, "gauge", help)

    def histogram(
        self, name: str, help: str = "", *, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """Fetch (or create) the named histogram."""
        kw = {} if buckets is None else {"buckets": tuple(buckets)}
        return self._get(name, "histogram", help, **kw)

    def metrics(self) -> dict[str, Metric]:
        """All registered metrics by name."""
        return dict(self._metrics)

    # -- scoping -----------------------------------------------------------

    @contextmanager
    def scoped(self, label: str):
        """Label every series recorded inside with ``scope=<stack>``.

        Nested scopes join with ``:`` — the same composition the ledger's
        :class:`~repro.exec.backend.IterationScope` prefixes use, so
        ``coloring[iter=2]:mis[iter=0]`` reads identically in both views.
        """
        self._scopes.append(label)
        try:
            yield self
        finally:
            self._scopes.pop()

    def scope_label(self) -> str | None:
        """The joined current scope (``None`` outside any scope)."""
        return ":".join(self._scopes) if self._scopes else None

    # -- maintenance -------------------------------------------------------

    def reset(self) -> None:
        """Clear every metric's series (definitions survive)."""
        for m in self._metrics.values():
            m.clear()

    def snapshot(self) -> dict[str, dict]:
        """Everything, as plain JSON-serialisable data."""
        return {
            name: {"kind": m.kind, "help": m.help, "series": m.snapshot()}
            for name, m in sorted(self._metrics.items())
            if len(m)
        }

    def render(self) -> str:
        """Text table of every non-empty metric (the CLI view)."""
        lines = []
        for name, m in sorted(self._metrics.items()):
            if not len(m):
                continue
            lines.append(f"{name} ({m.kind})")
            for row in m.snapshot():
                labels = ", ".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
                v = row["value"]
                if isinstance(v, dict):
                    val = (
                        f"count={v['count']} sum={v['sum']:.6g} "
                        f"min={v['min']:.3g} max={v['max']:.3g}"
                    )
                else:
                    val = f"{v:.6g}"
                lines.append(f"  {{{labels}}} {val}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(metrics={len(self._metrics)})"


# ---------------------------------------------------------------------------
# the process-wide default registry (what the runtime instruments)
# ---------------------------------------------------------------------------

_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The registry the runtime's instrumentation writes to."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default
    previous, _default = _default, registry
    return previous


def counter(name: str, help: str = "") -> Counter:
    """:meth:`MetricsRegistry.counter` on the default registry."""
    return _default.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """:meth:`MetricsRegistry.gauge` on the default registry."""
    return _default.gauge(name, help)


def histogram(name: str, help: str = "", *, buckets=None) -> Histogram:
    """:meth:`MetricsRegistry.histogram` on the default registry."""
    return _default.histogram(name, help, buckets=buckets)


def scoped(label: str):
    """:meth:`MetricsRegistry.scoped` on the default registry."""
    return _default.scoped(label)


def snapshot() -> dict[str, dict]:
    """:meth:`MetricsRegistry.snapshot` of the default registry."""
    return _default.snapshot()


def reset() -> None:
    """:meth:`MetricsRegistry.reset` of the default registry."""
    _default.reset()
