"""In-memory span recorder for the benchmark's traced passes.

A span is one timed call across a layer boundary: name, layer, start,
end, parent span and run id.  Spans nest strictly (a stack), so a span's
self time is its duration minus the durations of its direct children.
Nothing is written until :meth:`Tracer.write_chrome_trace` runs at the
end of the benchmark.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: every layer a span can belong to; ``bench`` is the harness's own time
LAYERS = (
    "bench",
    "generators",
    "distributed",
    "exec",
    "dispatch",
    "ops",
    "runtime",
    "algorithms",
    "service",
    "streaming",
    "telemetry",
)

# span record fields
NAME, LAYER, START, END, PARENT, RUN = range(6)


class Tracer:
    """Collects nested spans; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = ""
        self._t0 = time.perf_counter_ns()

    def begin(self, name: str, layer: str) -> None:
        """Open a span as a child of the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent, self.run_id])

    def end(self) -> None:
        """Close the innermost open span."""
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, layer: str):
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        self.begin(name, layer)
        try:
            yield
        finally:
            self.end()

    # -- analysis -----------------------------------------------------------

    def summary(self, run_id: str) -> dict:
        """Per-name inclusive seconds and calls, and per-layer self seconds,
        for one run id."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[RUN] == run_id]
        child_ns: dict[int, int] = defaultdict(int)
        for _, s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        wall: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, s in spans:
            dur = s[END] - s[START]
            wall[s[NAME]] += dur * 1e-9
            calls[s[NAME]] += 1
            self_s[s[LAYER]] += (dur - child_ns[i]) * 1e-9
        return {"wall": dict(wall), "calls": dict(calls), "self": self_s}

    # -- export -------------------------------------------------------------

    def write_chrome_trace(self, path: Path, metadata: dict) -> int:
        """Write every span as Chrome ``trace_event`` JSON; returns bytes."""
        events = [
            {
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": (s[START] - self._t0) / 1000.0,
                "dur": (s[END] - s[START]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": s[PARENT], "run": s[RUN]},
            }
            for i, s in enumerate(self.spans)
        ]
        doc = {"displayTimeUnit": "ms", "otherData": metadata, "traceEvents": events}
        data = json.dumps(doc).encode()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return len(data)
