"""Layer probes: the seams the benchmark times from outside the library.

Untraced, a :class:`Probe` hands out the library's own classes and calls
functions straight through, so end-to-end numbers carry no tracing cost.
Traced, it hands out subclasses that open a span around each public seam:

* ``Machine.record`` (cost charging, layer ``runtime``);
* ``DistBackend.on_op_start`` / ``on_op_end`` (every frontend op, ``exec``);
* ``Dispatcher.vxm_dist`` / ``mxm_dist`` (kernel selection, ``dispatch``);
* ``GraphStream.apply`` (delta ingest, ``streaming``);

and :meth:`Probe.call` wraps any other public call (generators,
``from_global``, algorithms, ``GraphQueryService.run``, the paper's ops,
telemetry export) in a span of the given layer.
"""

from __future__ import annotations

from repro.exec import DistBackend
from repro.ops.dispatch import Dispatcher
from repro.runtime import Machine
from repro.streaming import GraphStream

from spans import Tracer


def _traced_classes(tracer: Tracer):
    class TracedMachine(Machine):
        def record(self, label, breakdown):
            tracer.begin("runtime.record", "runtime")
            try:
                return super().record(label, breakdown)
            finally:
                tracer.end()

    class TracedDispatcher(Dispatcher):
        def vxm_dist(self, *args, **kwargs):
            with tracer.span("dispatch.vxm_dist", "dispatch"):
                return super().vxm_dist(*args, **kwargs)

        def mxm_dist(self, *args, **kwargs):
            with tracer.span("dispatch.mxm_dist", "dispatch"):
                return super().mxm_dist(*args, **kwargs)

    class TracedDistBackend(DistBackend):
        def on_op_start(self, op):
            tracer.begin(f"exec.{op}", "exec")
            super().on_op_start(op)

        def on_op_end(self, op, seconds):
            try:
                super().on_op_end(op, seconds)
            finally:
                tracer.end()

    class TracedStream(GraphStream):
        def apply(self, batch):
            with tracer.span("streaming.apply", "streaming"):
                return super().apply(batch)

    return TracedMachine, TracedDispatcher, TracedDistBackend, TracedStream


class Probe:
    """Builds the runtime objects a pass uses and times calls into layers."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        if tracer is None:
            classes = (Machine, Dispatcher, DistBackend, GraphStream)
        else:
            classes = _traced_classes(tracer)
        self._machine, self._dispatcher, self._backend, self._stream = classes

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(name, layer):
            return fn(*args, **kwargs)

    def machine(self, **kwargs) -> Machine:
        """A simulated machine (``Machine(**kwargs)``)."""
        return self._machine(**kwargs)

    def backend(self, machine: Machine) -> DistBackend:
        """A distributed backend with its own dispatcher."""
        return self._backend(machine, dispatcher=self._dispatcher(machine))

    def stream(self, backend: DistBackend, a) -> GraphStream:
        """A graph stream over ``a`` (distributes it through the backend)."""
        return self._stream(backend, a)
