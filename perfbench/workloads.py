"""The benchmark's three workloads and the metrics derived from one run.

Every workload is set up ``SETUP_REPS`` times (``setup_s`` is the
median), then runs a closed loop of its operation for the measured
seconds and checks the outputs.  The loop runs in ``SEGMENTS`` equal
segments with a *side sample* after each: the operations a workload
must time for the contract's full metric set but does not exercise in
its loop (see ``perfbench/README.md``).  Spreading those samples over
the run keeps them from all landing in one slow spell of a shared host.

Every workload serves the tiny GCUT model over a socket ``Server``, so
that every run can time ``generate`` requests: in its loop
(serve_interactive) or in its side samples (train, report).

The program only receives inputs generated here from the run's seed:
simulated datasets, model configs and request seeds.  The models and
load loops are built from the public ``repro.core`` / ``repro.data`` /
``repro.serve`` / ``repro.quality`` APIs.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import DGConfig, DoppelGANger
from repro.data.simulators import generate_gcut, generate_wwt
from repro.experiments.configs import BENCH, make_dg_config
from repro.observability import metrics as obs_metrics
from repro.quality import QualityReport, privacy_battery
from repro.serve import (GenerationService, ModelRegistry, ServeClient,
                         ServeError, Server)

from spans import Probes, Recorder

__all__ = ["WORKLOADS", "Run", "execute", "end_to_end_metrics",
           "layer_metrics", "cpu_count"]

SETUP_REPS = 3
#: Loop segments, each followed by a side sample.  The host alternates
#: between fast and ~1.6x slower spells lasting seconds, so the side
#: cells need samples at many points of the run to catch a fast spell.
SEGMENTS = 8
#: Train iterations per measured fit (the ``train_s`` operation).
TRAIN_ITERATIONS = 100
#: Privacy batteries per QualityReport in one ``report`` operation: a
#: battery takes ~20 ms, so one per report would leave ``privacy_s`` a
#: handful of samples.
BATTERIES_PER_REPORT = 8
#: Seeded dataset variants a ``report`` run cycles through.  A report's
#: cost depends on its data (the downstream decision tree alone spans
#: 0.64-0.81 s per fit across seeds), so a run covers several.
VARIANTS = 4
#: Privacy batteries per side sample (~15 ms each).
SIDE_BATTERIES = 8
#: Seconds of ``generate`` requests per side sample of a workload whose
#: loop sends none: ~30 requests, so a run's p95 has >= 10 beyond it.
SIDE_REQUEST_S = 0.75
#: Rows per ``generate`` request.
REQUEST_ROWS = 16
#: Every this-many-th request of a connection is replayed against a
#: direct ``generate`` after the loop.
CHECK_EVERY = 8
#: Direct generates after each traced request segment.
DIRECT_GENERATES = 5
#: Request-seed segment of the serve warm-up, past the loop segments.
WARMUP = 9


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _tiny_config(seed: int) -> DGConfig:
    """The tiny GCUT DoppelGANger every workload serves."""
    return DGConfig(
        sample_len=4, batch_size=16, iterations=40,
        attribute_hidden=(24, 24), minmax_hidden=(24, 24),
        feature_rnn_units=24, feature_mlp_hidden=(24,),
        discriminator_hidden=(32, 32), aux_discriminator_hidden=(32, 32),
        seed=seed)


def _params_sha(model: DoppelGANger) -> str:
    digest = hashlib.sha256()
    for param in (model.trainer.generator_params
                  + model.trainer.discriminator_params):
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def _same_dataset(a, b) -> bool:
    """Byte equality of every array and the schema."""
    return a.schema == b.schema and all(
        x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes()
        for x, y in ((a.attributes, b.attributes),
                     (a.features, b.features), (a.lengths, b.lengths)))


@dataclass
class Loop:
    """Operations of one run half (untraced or traced), accumulated over
    its segments."""

    latencies_ms: list = field(default_factory=list)
    wall_s: float = 0.0
    plan_counts: dict = field(default_factory=lambda: dict.fromkeys(
        ("traces", "replays", "eager_calls"), 0))
    model_passes: int = 0
    completed: int = 0

    def add_plan_counts(self, after: dict, before: dict) -> None:
        for key in self.plan_counts:
            self.plan_counts[key] += after.get(key, 0) - before.get(key, 0)


class Run:
    """Everything one benchmark run measures, plus its span recorder."""

    def __init__(self, seed: int, seconds: float, trace: bool, scratch):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.scratch = scratch
        self.recorder = Recorder()
        self._probes = Probes(self.recorder)
        self.setup_s: list[float] = []
        self.fit_s: list[float] = []
        self.report_s: list[float] = []
        self.privacy_s: list[float] = []
        #: The loop's operations; index 0 is untraced, index 1 traced.
        self.loops = (Loop(), Loop())
        #: The ``generate`` requests; the loop itself on serve_interactive.
        self.requests = (Loop(), Loop())
        self.phases = {phase: {"attempted": 0, "failed": 0}
                       for phase in ("setup", "loop", "side", "check")}
        self._lock = threading.Lock()

    def tracing(self, on: bool) -> None:
        """Install (or remove) the layer probes; a no-op untraced."""
        if not self.trace:
            return
        if on:
            self._probes.install()
        else:
            self._probes.remove()
        self.recorder.active = on

    def count(self, phase: str, ok: bool) -> None:
        with self._lock:
            self.phases[phase]["attempted"] += 1
            self.phases[phase]["failed"] += 0 if ok else 1

    # -- timed calls into the program ----------------------------------------
    def fit(self, model, data, *, measured: bool = True):
        """``model.fit(data)``; ``measured`` fits feed ``train_s``."""
        started = time.perf_counter()
        with self.recorder.span("core.fit" if measured
                                else "core.fit.warmup"):
            history = model.fit(data)
        if measured:
            self.fit_s.append(time.perf_counter() - started)
        return history

    def report(self, real, synthetic, holdout) -> QualityReport:
        """A QualityReport at the CLI defaults (downstream on)."""
        started = time.perf_counter()
        with self.recorder.span("quality.report"):
            report = QualityReport(real, synthetic, holdout=holdout,
                                   seed=self.seed)
        self.report_s.append(time.perf_counter() - started)
        if self.recorder.active:
            self.recorder.values["quality.timings"].append(
                dict(report.timings))
        return report

    def battery(self, model, members, non_members):
        started = time.perf_counter()
        with self.recorder.span("quality.privacy"):
            battery = privacy_battery(model, members, non_members,
                                      seed=self.seed)
        self.privacy_s.append(time.perf_counter() - started)
        return battery

    def side_report(self, state: dict) -> None:
        """The report operation at a small fixed scale (simulated GCUT,
        80 objects, length 16), for workloads that make no report of
        their own: every workload must report ``report_s``.  The same
        triple every time, so every side report gets a chance at the
        host's fast spells."""
        if "side_triple" not in state:
            rng = np.random.default_rng([self.seed, 1])
            state["side_triple"] = tuple(
                generate_gcut(n, rng, max_length=16) for n in (80, 80, 40))
        self.report(*state["side_triple"])

    def side_fit(self, data) -> None:
        """A refit of the tiny model, for workloads whose loop fits
        nothing: every workload must report ``train_s``."""
        self.fit(DoppelGANger(data.schema, _tiny_config(self.seed)), data)

    def serial_loop(self, loop: Loop, seconds: float, op) -> None:
        """Run ``op() -> ok`` back to back for ``seconds`` (at least once)."""
        before = dict(self.recorder.counts)
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with self.recorder.span("op"):
                ok = op()
            elapsed = time.perf_counter() - t0
            self.count("loop", ok)
            if ok:
                loop.latencies_ms.append(elapsed * 1e3)
            if time.perf_counter() - started >= seconds:
                break
        loop.wall_s += time.perf_counter() - started
        loop.add_plan_counts(self.recorder.counts, before)


# -- the served model --------------------------------------------------------

def _request_seed(run: Run, segment: int, connection: int, k: int) -> int:
    """Unique per (run seed, segment, connection, request)."""
    return (run.seed * 100 + segment) * 10_000_000 \
        + connection * 1_000_000 + k


def _serve(run: Run, model: DoppelGANger, state: dict) -> None:
    """Publish ``model`` to a temp ``ModelRegistry``, serve it through
    ``Server`` + ``GenerationService.from_registry`` (the CLI default)
    and warm up until the generation plan replays.  The workload's
    ``close`` shuts the server down."""
    state["served"] = model
    state["samples"] = []
    state["root"] = tempfile.mkdtemp(prefix="registry-", dir=run.scratch)
    registry = ModelRegistry(state["root"])
    registry.publish("gcut", model)
    state["server"] = Server(GenerationService.from_registry(registry))
    host, port = state["server"].address
    with ServeClient(host, port) as client:
        for i in range(3):
            client.generate("gcut", REQUEST_ROWS,
                            _request_seed(run, WARMUP, 0, i))


def _requests(run: Run, state: dict, seconds: float, segment: int,
              loop: Loop, phase: str) -> None:
    """``cpu_count()`` connections send back-to-back ``generate``
    requests for ``seconds``; every ``CHECK_EVERY``-th is kept for
    :func:`_check_requests`."""
    host, port = state["server"].address
    recorder = run.recorder
    connections = cpu_count()
    barrier = threading.Barrier(connections + 1)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def connection(index: int) -> None:
        client = None
        try:
            client = ServeClient(host, port)
            barrier.wait()
            deadline = time.perf_counter() + seconds
            k = 0
            while time.perf_counter() < deadline:
                seed = _request_seed(run, segment, index, k)
                k += 1
                t0 = time.perf_counter()
                try:
                    with recorder.span("serve.client.request", rid=seed):
                        served = client.generate("gcut", REQUEST_ROWS, seed)
                except ServeError:
                    run.count(phase, False)
                    client.close()
                    client = ServeClient(host, port)
                    continue
                elapsed = time.perf_counter() - t0
                run.count(phase, True)
                with lock:
                    loop.latencies_ms.append(elapsed * 1e3)
                    if seed % CHECK_EVERY == 0:
                        state["samples"].append((seed, served))
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=connection, args=(i,),
                                name=f"perfbench-conn-{i}")
               for i in range(connections)]
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use(registry if recorder.active else None):
        before = dict(recorder.counts)
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a connection failed; its error is raised below
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        loop.wall_s += time.perf_counter() - started
        loop.add_plan_counts(recorder.counts, before)
    if errors:
        raise errors[0]
    counters = registry.dump()["counters"]
    loop.model_passes += counters.get("serve.model_passes", 0)
    loop.completed += counters.get("serve.completed", 0)
    if recorder.active:
        # core.generate_ms: the model pass with no queue, timed right
        # after the traced requests so it sees the same host speed.
        for i in range(DIRECT_GENERATES):
            with recorder.span("direct"):
                state["served"].generate(REQUEST_ROWS,
                                         rng=np.random.default_rng(i))


def _check_requests(run: Run, state: dict) -> None:
    """Served bytes equal a direct generate with the same seed."""
    for seed, served in state["samples"]:
        with run.recorder.span("check"):
            direct = state["served"].generate(
                REQUEST_ROWS, rng=np.random.default_rng(seed))
        run.count("check", _same_dataset(served, direct))
    state["samples"].clear()


# -- workloads ---------------------------------------------------------------

class Workload:
    """``setup`` fills the state ``loop`` runs on; ``side`` takes one
    side sample; ``check`` verifies outputs kept by the loop and the
    side samples; ``close`` releases the state, also a partly set-up
    one."""

    name = ""
    #: True when the loop's operations are the ``generate`` requests.
    requests_in_loop = False

    def side(self, run: Run, state: dict, segment: int) -> None:
        _requests(run, state, SIDE_REQUEST_S, segment,
                  run.requests[run.recorder.active], "side")

    def check(self, run: Run, state: dict) -> None:
        _check_requests(run, state)

    def close(self, state: dict) -> None:
        server = state.pop("server", None)
        try:
            if server is not None:
                server.shutdown()
        finally:
            root = state.pop("root", None)
            if root is not None:
                shutil.rmtree(root, ignore_errors=True)


class Train(Workload):
    """Fit a BENCH-scale WWT DoppelGANger from scratch, back to back.

    Checked per fit: the losses are finite and the parameter sha equals
    the run's first fit (same seed, same data).
    """

    name = "train"

    def setup(self, run: Run, state: dict) -> None:
        rng = np.random.default_rng(run.seed)
        kwargs = dict(length=BENCH.wwt_length,
                      short_period=BENCH.wwt_short_period,
                      long_period=BENCH.wwt_long_period)
        data = generate_wwt(BENCH.n_samples, rng, **kwargs)
        state.update(
            data=data, holdout=generate_wwt(100, rng, **kwargs), shas=[],
            config=make_dg_config("wwt", BENCH,
                                  iterations=TRAIN_ITERATIONS,
                                  seed=run.seed))
        # A short fit pays the process's first-fit costs (lazy imports,
        # first BLAS calls) outside the measured loop; its model is the
        # one the side samples' privacy battery attacks.
        state["warm"] = DoppelGANger(data.schema, make_dg_config(
            "wwt", BENCH, iterations=10, seed=run.seed))
        run.fit(state["warm"], data, measured=False)
        gcut = generate_gcut(80, rng, max_length=16)
        served = DoppelGANger(gcut.schema, _tiny_config(run.seed))
        run.fit(served, gcut, measured=False)
        _serve(run, served, state)

    def side(self, run: Run, state: dict, segment: int) -> None:
        for _ in range(SIDE_BATTERIES):
            run.battery(state["warm"], state["data"][:100],
                        state["holdout"])
        run.side_report(state)
        super().side(run, state, segment)

    def loop(self, run: Run, state: dict, seconds: float, segment: int,
             loop: Loop) -> None:
        data, shas = state["data"], state["shas"]

        def op() -> bool:
            model = DoppelGANger(data.schema, state["config"])
            history = run.fit(model, data)
            sha = _params_sha(model)
            shas.append(sha)
            finite = all(np.isfinite(trace).all() for trace in (
                history.d_loss, history.g_loss, history.wasserstein))
            ok = finite and sha == shas[0]
            run.count("check", ok)
            return ok

        run.serial_loop(loop, seconds, op)


class Report(Workload):
    """QualityReport + privacy batteries over seeded GCUT sets.

    Operations cycle through ``VARIANTS`` seeded (real, synthetic,
    holdout) triples.  Checked per operation: every report's canonical
    JSON is byte-identical across the run's repetitions of its variant,
    and every battery's across the run.
    """

    name = "report"

    def setup(self, run: Run, state: dict) -> None:
        variants = []
        for k in range(VARIANTS):
            rng = np.random.default_rng([run.seed, k])
            variants.append(tuple(generate_gcut(n, rng, max_length=24)
                                  for n in (300, 300, 150)))
        real, synthetic, holdout = variants[0]
        members = real[:150]
        state.update(variants=variants, members=members,
                     non_members=holdout, ops=0, reports={},
                     batteries=set())
        model = DoppelGANger(members.schema, _tiny_config(run.seed))
        run.fit(model, members)
        # A small report pays the first-report costs (downstream imports,
        # first MLP steps) outside the measured loop.
        QualityReport(real[:60], synthetic[:60], holdout=holdout[:30],
                      seed=run.seed)
        _serve(run, model, state)

    def side(self, run: Run, state: dict, segment: int) -> None:
        run.side_fit(state["members"])
        super().side(run, state, segment)

    def loop(self, run: Run, state: dict, seconds: float, segment: int,
             loop: Loop) -> None:
        def op() -> bool:
            variant = state["ops"] % VARIANTS
            state["ops"] += 1
            report = run.report(*state["variants"][variant])
            first = state["reports"].setdefault(variant, report.to_json())
            ok = report.to_json() == first
            for _ in range(BATTERIES_PER_REPORT):
                battery = run.battery(state["served"], state["members"],
                                      state["non_members"])
                state["batteries"].add(battery.to_json())
            ok = ok and len(state["batteries"]) == 1
            run.count("check", ok)
            return ok

        run.serial_loop(loop, seconds, op)


class ServeInteractive(Workload):
    """``cpu_count()`` connections send back-to-back 16-row ``generate``
    requests to the tiny GCUT model over a socket ``Server``."""

    name = "serve_interactive"
    requests_in_loop = True

    def setup(self, run: Run, state: dict) -> None:
        rng = np.random.default_rng(run.seed)
        data = generate_gcut(80, rng, max_length=16)
        state.update(data=data, holdout=generate_gcut(40, rng,
                                                      max_length=16))
        model = DoppelGANger(data.schema, _tiny_config(run.seed))
        run.fit(model, data)
        _serve(run, model, state)

    def side(self, run: Run, state: dict, segment: int) -> None:
        """Runs while the clients are paused, so it never competes with
        the measured requests."""
        data = state["data"]
        run.side_fit(data)
        for _ in range(SIDE_BATTERIES):
            run.battery(state["served"], data[:40], state["holdout"])
        run.side_report(state)

    def loop(self, run: Run, state: dict, seconds: float, segment: int,
             loop: Loop) -> None:
        _requests(run, state, seconds, segment, loop, "loop")


WORKLOADS = {w.name: w for w in (Train(), ServeInteractive(), Report())}


def execute(workload, run: Run) -> None:
    """Set up ``SETUP_REPS`` times, run the loop segments, check.

    A traced run measures its first half untraced and its second half
    traced, so the difference is the tracing overhead; setup and checks
    are traced.
    """
    if workload.requests_in_loop:
        run.requests = run.loops
    state = None
    run.tracing(True)
    try:
        for _ in range(SETUP_REPS):
            if state is not None:
                workload.close(state)
            state = {}
            started = time.perf_counter()
            with run.recorder.span("setup"):
                workload.setup(run, state)
            run.setup_s.append(time.perf_counter() - started)
            run.count("setup", True)
        for segment in range(SEGMENTS):
            traced = run.trace and segment >= SEGMENTS // 2
            run.tracing(traced)
            workload.loop(run, state, run.seconds / SEGMENTS, segment,
                          run.loops[traced])
            with run.recorder.span("side"):
                workload.side(run, state, segment)
        run.tracing(True)
        workload.check(run, state)
    finally:
        run.tracing(False)
        if state is not None:
            workload.close(state)


# -- metrics -----------------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def end_to_end_metrics(run: Run) -> dict:
    """Name -> (value, unit) for the untraced run.

    ``train_s``, ``report_s`` and ``privacy_s`` time operations that
    repeat the same work within a run, so each reports the fastest
    repetition: the slower ones measure the host's other tenants, whose
    load moves these medians by up to 1.6x from run to run.
    """
    requests = run.requests[0]
    latencies = requests.latencies_ms
    return {
        "setup_s": (_median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "train_s": (min(run.fit_s), "s"),
        "throughput_rps": (len(latencies) / requests.wall_s, "1/s"),
        "latency_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "latency_p95_ms": (float(np.percentile(latencies, 95)), "ms"),
        "report_s": (min(run.report_s), "s"),
        "privacy_s": (min(run.privacy_s), "s"),
    }


QUALITY_SECTIONS = ("feature_marginals", "attribute_marginals",
                    "autocorrelation", "lengths",
                    "attribute_feature_joints", "cross_correlation",
                    "diversity", "memorization", "downstream")


class _Tree:
    """Span lookups: by id, by name, and nearest ancestor of a name."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.by_name: dict[str, list] = {}
        for span in spans:
            self.by_name.setdefault(span[1], []).append(span)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def ancestor(self, span, name: str):
        parent = span[4]
        while parent is not None:
            node = self.by_id.get(parent)
            if node is None:
                return None
            if node[1] == name:
                return node
            parent = node[4]
        return None

    def grouped(self, name: str, under: str) -> dict:
        """Spans called ``name`` grouped by their ``under`` ancestor id,
        with an entry (possibly empty) for every ``under`` span."""
        groups = {s[0]: [] for s in self.named(under)}
        for span in self.named(name):
            owner = self.ancestor(span, under)
            if owner is not None:
                groups[owner[0]].append(span)
        return groups


def _dur(span) -> float:
    return span[3] - span[2]


def layer_metrics(run: Run) -> dict:
    """Name -> (value, unit) for the traced run; layers a workload does
    not exercise read 0."""
    tree = _Tree(run.recorder.spans)
    untraced, traced = run.loops
    out: dict[str, tuple] = {}

    # serve: join the client, server and batcher spans of each request.
    clients = {s[5]: s for s in tree.named("serve.client.request")}
    handles = {s[5]: s for s in tree.named("serve.server.handle")
               if s[5] in clients}
    decodes: dict = {}
    for span in tree.named("serve.client.decode"):
        owner = tree.by_id.get(span[4])
        if owner is not None and owner[1] == "serve.client.request":
            decodes[owner[5]] = decodes.get(owner[5], 0.0) + _dur(span)
    handle_ids = {s[0] for s in handles.values()}
    transport = [_dur(clients[rid]) - _dur(handles[rid])
                 - decodes.get(rid, 0.0) for rid in handles]
    submits = [_dur(s) for s in tree.named("serve.batcher.submit")
               if s[5] in clients]
    direct = [_dur(s) for s in tree.named("core.generate")
              if tree.by_id.get(s[4], (None, None))[1] == "direct"]
    generate_ms = _median(direct) * 1e3
    out["serve.transport_ms"] = (_median(transport) * 1e3, "ms")
    out["serve.server.handle_ms"] = (
        _median([_dur(s) for s in handles.values()]) * 1e3, "ms")
    out["serve.protocol.encode_ms"] = (_median(
        [_dur(s) for s in tree.named("serve.protocol.encode")
         if s[4] in handle_ids]) * 1e3, "ms")
    out["serve.client.decode_ms"] = (_median(list(decodes.values())) * 1e3,
                                     "ms")
    out["serve.protocol.payload_kb"] = (
        _median(run.recorder.values["serve.payload_bytes"]) / 1024.0, "KB")
    out["core.generate_ms"] = (generate_ms, "ms")
    out["serve.batcher.wait_ms"] = (
        _median(submits) * 1e3 - generate_ms if submits else 0.0, "ms")
    served = run.requests[1]
    out["serve.batcher.passes_per_request"] = (
        served.model_passes / served.completed if served.completed
        else 0.0, "count")
    out["serve.registry.publish_s"] = (_median(
        [_dur(s) for s in tree.named("serve.registry.publish")]), "s")
    out["serve.registry.load_s"] = (_median(
        [_dur(s) for s in tree.named("serve.registry.load")]), "s")

    # plan compiler: per operation of the traced loop.
    ops = max(len(traced.latencies_ms), 1)
    for key in ("traces", "replays", "eager_calls"):
        out[f"nn.plan.{key}"] = (traced.plan_counts.get(key, 0) / ops,
                                 "1/op")

    # training: every measured fit of the traced run.
    fits = tree.named("core.fit")
    parts = {name: tree.grouped(name, "core.fit") for name in (
        "core.trainer.d_step", "core.trainer.g_step", "data.encoding.fit",
        "data.encoding.transform")}
    n_fits = max(len(fits), 1)
    for short, name in (("d_step", "core.trainer.d_step"),
                        ("g_step", "core.trainer.g_step")):
        calls = [s for group in parts[name].values() for s in group]
        out[f"core.trainer.{short}_ms"] = (
            _median([_dur(s) for s in calls]) * 1e3, "ms")
        out[f"core.trainer.{short}_calls"] = (len(calls) / n_fits,
                                              "count")
    adam = [s for group in tree.grouped("nn.optim.adam_step",
                                        "core.fit").values()
            for s in group]
    out["nn.optim.adam_step_ms"] = (_median([_dur(s) for s in adam]) * 1e3,
                                    "ms")
    for short in ("fit", "transform"):
        calls = [s for group in parts[f"data.encoding.{short}"].values()
                 for s in group]
        out[f"data.encoding.{short}_s"] = (
            _median([_dur(s) for s in calls]), "s")
    other = [_dur(fit) - sum(_dur(s) for group in parts.values()
                             for s in group[fit[0]])
             for fit in fits]
    out["core.trainer.other_s"] = (_median(other), "s")

    # quality: every QualityReport and privacy battery of the traced run.
    timings = run.recorder.values["quality.timings"]
    for section in QUALITY_SECTIONS:
        out[f"quality.{section}_s"] = (
            _median([t.get(section, 0.0) for t in timings]), "s")
    fit_groups = tree.grouped("downstream.fit", "quality.report")
    predict_groups = tree.grouped("downstream.predict", "quality.report")
    out["downstream.fit_s"] = (_median(
        [sum(map(_dur, g)) for g in fit_groups.values()]), "s")
    out["downstream.predict_s"] = (_median(
        [sum(map(_dur, g)) for g in predict_groups.values()]), "s")
    out["downstream.fits"] = (_median(
        [len(g) for g in fit_groups.values()]), "count")
    batteries = tree.named("quality.privacy")
    generates = tree.grouped("core.generate", "quality.privacy")
    out["quality.privacy.generate_s"] = (_median(
        [sum(map(_dur, generates[b[0]])) for b in batteries]), "s")
    out["quality.privacy.attacks_s"] = (_median(
        [_dur(b) - sum(map(_dur, generates[b[0]])) for b in batteries]),
        "s")

    base = _median(untraced.latencies_ms)
    out["trace.overhead_pct"] = (
        100.0 * (_median(traced.latencies_ms) - base) / base
        if base else 0.0, "%")
    return out
