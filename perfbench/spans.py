"""In-memory spans and the layer probes of a traced benchmark run.

A span is one timed call: ``(id, name, start, end, parent, rid)``.
``parent`` is the id of the span open on the same thread when it began
(``None`` at a thread's top level) and ``rid`` ties spans of one request
together across threads: a generate request's client span, the server's
``handle`` span and the batcher's submit span all carry the request seed.

The program itself records nothing.  :class:`Probes` times its layers
from outside by replacing public functions and methods with wrappers
that open a span around the original call, and restores them on
:meth:`Probes.remove`.  Spans are kept in memory and written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "Probes"]


class Recorder:
    """Collects spans while :attr:`active`; costs one flag check when not."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        #: Named value samples that are not durations (payload sizes,
        #: report section timings), collected while active.
        self.values: dict[str, list] = defaultdict(list)
        #: Counters summed by probes (plan traces/replays/eager calls).
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple | None:
        """``(id, name)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        if not self.active:
            yield
            return
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid))

    def record(self, name: str, start: float, end: float, parent, rid
               ) -> None:
        """Add a span whose start and end happen on different threads."""
        self.spans.append((next(self._ids), name, start, end, parent, rid))

    def write(self, path) -> None:
        """Write every span as one JSON line, in start order."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, rid in sorted(
                    self.spans, key=lambda s: s[2]):
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start - t0,
                     "end": end - t0, "parent": parent, "rid": rid})
                    + "\n")


class Probes:
    """Wrap the program's public layer entry points in spans."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple] = []

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _timed(self, owner, attr: str, name: str) -> None:
        recorder = self.recorder

        def wrapper(original):
            def probe(*args, **kwargs):
                top = recorder.current()
                if top is not None and top[1] == name:
                    # A subclass calling its parent's probed method:
                    # time only the outer call.
                    return original(*args, **kwargs)
                with recorder.span(name):
                    return original(*args, **kwargs)
            return probe

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        from repro.core.doppelganger import DoppelGANger
        from repro.core.trainer import DGTrainer
        from repro.data.encoding import DataEncoder
        from repro.downstream import Classifier, Regressor
        from repro.nn.optim import Adam
        from repro.nn.plan import PlanFunction
        from repro.serve import protocol
        from repro.serve.batcher import MicroBatcher
        from repro.serve.registry import ModelRegistry
        from repro.serve.server import GenerationService

        if self._saved:
            return
        recorder = self.recorder
        self._timed(protocol, "dataset_to_bytes", "serve.protocol.encode")
        self._timed(protocol, "dataset_from_bytes", "serve.client.decode")
        self._timed(ModelRegistry, "publish", "serve.registry.publish")
        self._timed(ModelRegistry, "load", "serve.registry.load")
        self._timed(DoppelGANger, "generate", "core.generate")
        self._timed(DGTrainer, "discriminator_step", "core.trainer.d_step")
        self._timed(DGTrainer, "generator_step", "core.trainer.g_step")
        self._timed(Adam, "step", "nn.optim.adam_step")
        self._timed(DataEncoder, "fit", "data.encoding.fit")
        self._timed(DataEncoder, "transform", "data.encoding.transform")
        for base in (Classifier, Regressor):
            for cls in _subclasses(base):
                for attr in ("fit", "predict"):
                    if attr in cls.__dict__:
                        self._timed(cls, attr, f"downstream.{attr}")

        def handle(original):
            def probe(service, header, payload=b""):
                with recorder.span("serve.server.handle",
                                   rid=header.get("seed")):
                    response = original(service, header, payload)
                if recorder.active and response[0].get("status") == "ok" \
                        and header.get("op") == "generate":
                    recorder.values["serve.payload_bytes"].append(
                        len(response[1]))
                return response
            return probe

        def submit(original):
            def probe(batcher, n, seed):
                if not recorder.active:
                    return original(batcher, n, seed)
                top = recorder.current()
                start = time.perf_counter()
                future = original(batcher, n, seed)
                future.add_done_callback(lambda _: recorder.record(
                    "serve.batcher.submit", start, time.perf_counter(),
                    top[0] if top else None, seed))
                return future
            return probe

        def plan_call(original):
            def probe(plan, inputs):
                before = dict(plan.stats)
                try:
                    return original(plan, inputs)
                finally:
                    if recorder.active:
                        for key in ("traces", "replays", "eager_calls"):
                            recorder.counts[key] += (plan.stats[key]
                                                     - before[key])
            return probe

        self._replace(GenerationService, "handle", handle)
        self._replace(MicroBatcher, "submit", submit)
        self._replace(PlanFunction, "__call__", plan_call)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _subclasses(base: type) -> list[type]:
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
