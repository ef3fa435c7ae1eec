"""Multi-replica serving: a supervised pool of replica processes.

A :class:`Fleet` is the replica pool behind a
:class:`~repro.serve.server.GenerationService` started with
``replicas >= 1``.  It owns N worker processes, each running a full
:class:`~repro.serve.server.Server` over a plain ``GenerationService``
on the registry whose LRU model table loads any ``name@version`` on
first use -- so one fleet serves every registry version without pinning
them all in every worker's memory.  The pool keeps only the process
machinery: spawn, supervise, respawn, route, forward-with-retry and
status.  Parsing, quotas, alias pinning, the op table and drain all
live in the front service, the one front door of :mod:`repro.serve`.

Determinism contract (the point of the whole design):

- Generation is a pure function of ``(model bytes, n, seed)`` -- the
  registry content-addresses the bytes and the batcher coalesces at
  block level without repacking rows -- so **any** replica returns the
  same bytes for the same request.
- Routing is therefore free to be a pure function of the request:
  ``crc32(f"{spec}|{n}|{seed}") % replicas`` picks the preferred
  replica; an unhealthy replica shifts the request to the next healthy
  index.  Health changes where a request *runs*, never what it
  *returns*, so fleet output is byte-identical to a single
  ``GenerationService`` for every replica count and under any kill
  schedule.  The front service pins every alias to a canonical
  ``name@version`` before forwarding, so replicas never resolve one.

Failure handling: the pool marks a replica *suspect* on any transport
failure and retries the in-flight request on the next healthy replica
before the client sees anything; a background supervisor probes suspect
replicas, reaps dead ones, and respawns them on a bounded deterministic
backoff (:class:`~repro.resilience.retry.RetryPolicy`), the same
machinery as :mod:`repro.serve.jobs`.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import threading
import time
import zlib

from repro.atomic import atomic_write
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.parallel.pool import mp_context
from repro.resilience.retry import RetryPolicy
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.registry import ModelRegistry

__all__ = ["ReplicaHandle", "Fleet", "route_index", "replica_main"]

#: Transport-level client codes and the replica's own drain code are the
#: retryable outcomes: the request never produced (or can no longer
#: produce) a response on that replica, so replaying it elsewhere is
#: safe and invisible to the client.
_RETRYABLE_CODES = frozenset({protocol.ERR_TIMEOUT,
                              protocol.ERR_CONNECTION,
                              protocol.ERR_SHUTTING_DOWN})


def route_index(spec: str, n: int, seed: int, replicas: int) -> int:
    """The preferred replica for a generate request.

    A pure function of the request and the replica count -- ``crc32``
    rather than ``hash()`` because Python salts string hashes per
    process, which would make routing differ between router restarts.
    """
    key = f"{spec}|{int(n)}|{int(seed)}".encode("utf-8")
    return zlib.crc32(key) % int(replicas)


# -- replica process ---------------------------------------------------------

def replica_main(index: int, registry_root: str, port_path: str,
                 options: dict) -> None:
    """Entry point of one replica worker process (module-level: spawn-safe).

    Builds a ``GenerationService`` over the registry with ``options``
    (its LRU ``model_cache`` and batcher knobs), serves it on an
    ephemeral loopback port, publishes ``{"port", "pid"}`` atomically to
    ``port_path``, then waits for SIGTERM (graceful drain) or the death
    of its parent router (orphan exit).
    """
    from repro.serve.server import GenerationService, Server

    # Under the spawn start method the child imports everything fresh,
    # so re-apply the kernel dispatch choice from the environment (fork
    # children inherit it as live state and this is a no-op).
    fused = os.environ.get("REPRO_FUSED")
    if fused is not None:
        from repro.nn.kernels import set_fused
        set_fused(fused.strip().lower() not in ("0", "false", ""))
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # router owns shutdown
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    with obs_metrics.use(obs_metrics.MetricsRegistry()):
        service = GenerationService(registry=ModelRegistry(registry_root),
                                    **dict(options))
        server = Server(service)
        atomic_write(port_path, json.dumps({"port": server.address[1],
                                            "pid": os.getpid(),
                                            "replica": int(index)},
                                           sort_keys=True))
        parent = os.getppid()
        while not stop.wait(0.2):
            if os.getppid() != parent:
                break  # router died without SIGTERMing us
        server.shutdown(drain=True)


# -- the pool ----------------------------------------------------------------

class ReplicaHandle:
    """The router's view of one replica: process, port, health, clients.

    States: ``starting`` (spawned, port not yet published), ``healthy``
    (serving), ``suspect`` (a forward failed; awaiting probe), ``dead``
    (process exited; awaiting respawn backoff).  Socket clients to the
    replica are pooled per handle and discarded wholesale whenever the
    replica is suspected or replaced.
    """

    def __init__(self, index: int):
        self.index = int(index)
        self.process = None
        self.port_path = None
        self.port: int | None = None
        self.pid: int | None = None
        self.state = "starting"
        self.restarts = 0
        self.routed = 0
        self.failures = 0          # consecutive ready-failures (backoff)
        self.probes = 0            # failed probes while suspect
        self.respawn_due = 0.0     # monotonic deadline for next respawn
        self._clients: list[ServeClient] = []
        self._lock = threading.Lock()

    # -- client pool ---------------------------------------------------------
    def borrow(self, timeout: float) -> ServeClient:
        with self._lock:
            if self._clients:
                return self._clients.pop()
            port = self.port
        if port is None:
            raise ServeError(protocol.ERR_CONNECTION,
                             f"replica {self.index} has no port yet")
        return ServeClient("127.0.0.1", port, timeout=timeout,
                           connect_retries=2)

    def give_back(self, client: ServeClient) -> None:
        with self._lock:
            self._clients.append(client)

    def discard_clients(self) -> None:
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()

    def alive(self) -> bool:
        return self.process is not None and self.process.exitcode is None

    def status_row(self) -> dict:
        return {"replica": self.index, "pid": self.pid,
                "port": self.port, "state": self.state,
                "restarts": self.restarts, "routed": self.routed}


class Fleet:
    """Supervisor + router over N replica processes.

    Args:
        registry: The :class:`ModelRegistry` the replicas serve; each
            opens its own instance over the same root.
        replicas: Worker process count (>= 1).
        options: Keyword arguments of every replica's
            ``GenerationService``: ``model_cache`` (>= 1, the models each
            replica holds hot) and the batcher / request-size knobs.
        request_timeout: Seconds to wait on one replica for one
            forwarded request before suspecting it.
        respawn_policy: Backoff schedule for respawning dead replicas.
    """

    def __init__(self, registry: ModelRegistry, replicas: int,
                 options: dict, *, request_timeout: float = 60.0,
                 respawn_policy: RetryPolicy | None = None):
        if replicas < 1:
            raise ValueError("a fleet needs at least 1 replica")
        if options.get("model_cache", 0) < 1:
            raise ValueError("fleet replicas load models on first use: "
                             "model_cache must be >= 1")
        self.registry = registry
        self.replicas = int(replicas)
        self.request_timeout = float(request_timeout)
        self.respawn_policy = respawn_policy or RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0, max_delay=5.0)
        self._replica_options = dict(options)
        self._state_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        self._handles = [ReplicaHandle(i) for i in range(self.replicas)]
        self.totals = {"routed": 0, "retried": 0, "respawns": 0}
        self._totals_lock = threading.Lock()

        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + 60.0
        for handle in self._handles:
            if not self._await_ready(handle, deadline):
                # Leave it to the supervisor's respawn loop.
                handle.state = "dead"
                handle.respawn_due = time.monotonic()

        self._supervisor_stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor",
            daemon=True)
        self._supervisor.start()

    # -- replica lifecycle ---------------------------------------------------
    def _spawn(self, handle: ReplicaHandle) -> None:
        handle.port_path = os.path.join(
            self._state_dir,
            f"replica-{handle.index}-{handle.restarts}.json")
        handle.port = None
        handle.pid = None
        handle.probes = 0
        handle.state = "starting"
        handle.discard_clients()
        context = mp_context()
        handle.process = context.Process(
            target=replica_main,
            args=(handle.index, self.registry.root, handle.port_path,
                  self._replica_options),
            name=f"repro-fleet-replica-{handle.index}", daemon=True)
        handle.process.start()

    def _await_ready(self, handle: ReplicaHandle,
                     deadline: float) -> bool:
        """Wait for the replica's port file, then a successful ping."""
        stop = getattr(self, "_supervisor_stop", None)
        while time.monotonic() < deadline:
            if stop is not None and stop.is_set():
                return False  # fleet is closing; don't block it
            if not handle.alive():
                return False
            if os.path.exists(handle.port_path):
                try:
                    with open(handle.port_path, encoding="utf-8") as fh:
                        info = json.load(fh)
                except (OSError, ValueError):
                    time.sleep(0.01)
                    continue
                handle.port = int(info["port"])
                handle.pid = int(info["pid"])
                try:
                    client = handle.borrow(timeout=5.0)
                except ServeError:
                    return False
                try:
                    ok = client.ping()
                except ServeError:
                    client.close()
                    return False
                handle.give_back(client)
                if ok:
                    handle.state = "healthy"
                    handle.failures = 0
                    return True
                return False
            time.sleep(0.01)
        return False

    def _mark_suspect(self, handle: ReplicaHandle) -> None:
        if handle.state == "healthy":
            handle.state = "suspect"
        handle.discard_clients()

    def _respawn(self, handle: ReplicaHandle) -> None:
        handle.restarts += 1
        handle.failures += 1
        with self._totals_lock:
            self.totals["respawns"] += 1
        obs_metrics.counter("fleet.respawns").inc()
        obs_events.emit("fleet.respawn",
                        {"replica": handle.index,
                         "restarts": handle.restarts}, transient=True)
        self._spawn(handle)
        if self._await_ready(handle, time.monotonic() + 30.0):
            return
        # Still not up: reap and schedule the next attempt.
        if handle.process is not None and handle.alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        handle.state = "dead"
        attempt = min(handle.failures, self.respawn_policy.max_attempts)
        handle.respawn_due = (time.monotonic()
                              + self.respawn_policy.delay(attempt))

    def _supervise(self) -> None:
        """Background health loop: reap dead replicas, probe suspects,
        respawn on a bounded deterministic backoff."""
        while not self._supervisor_stop.wait(0.05):
            for handle in self._handles:
                if self._supervisor_stop.is_set():
                    return
                if handle.state in ("healthy", "suspect") \
                        and not handle.alive():
                    handle.state = "dead"
                    handle.respawn_due = time.monotonic()
                    handle.discard_clients()
                if handle.state == "suspect":
                    self._probe(handle)
                if handle.state == "dead" \
                        and time.monotonic() >= handle.respawn_due:
                    self._respawn(handle)

    def _probe(self, handle: ReplicaHandle) -> None:
        ok = False
        client = None
        try:
            client = handle.borrow(timeout=2.0)
            ok = client.ping()
        except ServeError:
            ok = False
        if client is not None:
            if ok:
                handle.give_back(client)
            else:
                client.close()
        if ok:
            handle.state = "healthy"
            handle.probes = 0
            handle.failures = 0
            return
        handle.probes += 1
        if handle.probes >= 3 and handle.alive():
            # Alive but unresponsive (hung): replace it.
            handle.process.terminate()
            handle.process.join(timeout=5.0)
            if handle.alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
            handle.state = "dead"
            handle.respawn_due = time.monotonic()

    # -- request routing -----------------------------------------------------
    def _healthy_order(self, preferred: int) -> list[ReplicaHandle]:
        """Healthy replicas starting at ``preferred``, wrapping forward."""
        ordered = []
        for offset in range(self.replicas):
            handle = self._handles[(preferred + offset) % self.replicas]
            if handle.state == "healthy":
                ordered.append(handle)
        return ordered

    def _forward(self, handle: ReplicaHandle, header: dict,
                 payload: bytes) -> tuple[dict, bytes]:
        """One attempt on one replica; raises ServeError on transport
        failure (the caller suspects the replica and retries)."""
        client = handle.borrow(timeout=self.request_timeout)
        try:
            response, body = client._call(header, payload)
        except ServeError:
            client.close()
            raise
        handle.give_back(client)
        return response, body

    def generate(self, spec: str, n: int, seed: int
                 ) -> tuple[dict, bytes]:
        """Forward one validated generate of canonical ``spec``.

        Tries healthy replicas from :func:`route_index` onwards; a
        transport failure suspects the replica and moves on, and a pass
        with no answer waits one backoff step for the supervisor.
        Returns the replica's response, or an ``internal`` error once
        the respawn budget is spent.
        """
        forwarded = {"op": "generate", "model": spec,
                     "n": int(n), "seed": int(seed)}
        preferred = route_index(spec, n, seed, self.replicas)
        last_error = "no healthy replica"
        for attempt in range(1, self.respawn_policy.max_attempts + 1):
            for handle in self._healthy_order(preferred):
                try:
                    response, body = self._forward(handle, forwarded,
                                                   b"")
                except ServeError as exc:
                    self._mark_suspect(handle)
                    self._note_retry(handle, exc.code)
                    last_error = str(exc)
                    continue
                if response.get("code") in _RETRYABLE_CODES:
                    # The replica is draining; it produced no result.
                    self._note_retry(handle, response.get("code"))
                    last_error = response.get("error", "replica draining")
                    continue
                handle.routed += 1
                with self._totals_lock:
                    self.totals["routed"] += 1
                obs_metrics.counter("fleet.routed").inc()
                return response, body
            # No healthy replica produced an answer this pass; give the
            # supervisor a deterministic beat to respawn one.
            time.sleep(self.respawn_policy.delay(attempt))
        return protocol.error_response(
            protocol.ERR_INTERNAL,
            f"no healthy replica could serve the request after "
            f"{self.respawn_policy.max_attempts} passes "
            f"(last: {last_error})")

    def _note_retry(self, handle: ReplicaHandle, code) -> None:
        with self._totals_lock:
            self.totals["retried"] += 1
        obs_metrics.counter("fleet.retries").inc()
        obs_events.emit("fleet.retry",
                        {"replica": handle.index, "code": code},
                        transient=True)

    def fleet_status(self) -> dict:
        """Per-replica health rows and the pool's routing totals."""
        with self._totals_lock:
            totals = dict(self.totals)
        return {"replicas": [h.status_row() for h in self._handles],
                "totals": totals}

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Stop supervising, SIGTERM every replica (each drains its own
        admitted work) and clean up.  The front service drains its
        in-flight forwards before calling this."""
        self._supervisor_stop.set()
        self._supervisor.join(timeout=timeout)
        for handle in self._handles:
            handle.discard_clients()
            if handle.process is not None and handle.alive():
                handle.process.terminate()  # SIGTERM -> graceful drain
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(timeout=timeout)
                if handle.alive():
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
            handle.state = "dead"
        shutil.rmtree(self._state_dir, ignore_errors=True)
