"""Serving's one front door, the generation service, and its socket server.

Two layers, deliberately separable:

- :class:`GenerationService` is transport-independent and the only
  request dispatcher in :mod:`repro.serve`: ``handle(header, payload)
  -> (header, payload)`` parses every request, applies per-client
  quotas, resolves aliases, runs the op table, drains in-flight work on
  close and maps failures to protocol error codes.  A ``generate`` runs
  on the service's own :class:`ModelCache` or, with ``replicas >= 1``,
  through a :class:`~repro.serve.fleet.Fleet` of replica processes,
  each itself a plain ``GenerationService`` over the registry.  With a
  :class:`~repro.serve.jobs.JobSupervisor` attached it also speaks the
  training-job verbs and pins each auto-published model the moment its
  job completes.  :class:`repro.serve.client.InProcessClient` calls it
  directly; the socket server is a thin framing shim over it.
- :class:`Server` owns a listening socket, an accept thread, and one
  handler thread per connection.  Handler threads block on their
  request's Future while the batcher worker executes -- concurrency is
  bounded by the batcher's admission queue, so a flooded server *sheds*
  (``busy`` responses) instead of accumulating unbounded work.

Shutdown contract (``Server.shutdown(drain=True)``): stop accepting, stop
admitting, complete every already-admitted request and write its
response, then close connections and the listening socket.  Requests that
arrive during the drain get a well-formed ``shutting_down`` error.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.lru import LRUCache
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.serve import protocol
from repro.serve.batcher import BatcherClosed, MicroBatcher, QueueFull
from repro.serve.fleet import Fleet
from repro.serve.jobs import (JobError, UnknownJob,
                              validate_evaluate_options,
                              validate_train_overrides)
from repro.serve.registry import (_NAME_RE, ModelNotFound, ModelRegistry,
                                  RegistryError)

__all__ = ["GenerationService", "Server", "ModelCache", "ClientQuotas",
           "TokenBucket", "DEFAULT_MAX_REQUEST_N"]

# A single request may ask for at most this many objects; bigger asks get
# a bad_request telling the caller to split (keeps one client from
# monopolising the admission queue).
DEFAULT_MAX_REQUEST_N = 1 << 20


# -- client quotas -----------------------------------------------------------

class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``clock`` is injectable (monotonic seconds) so quota behaviour is
    testable without wall-clock sleeps.
    """

    def __init__(self, rate: float, burst: int,
                 clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/second")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self) -> bool:
        """Take one token if available; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp)
                               * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class ClientQuotas:
    """Per-client token buckets keyed by the request's ``client`` field.

    ``rate=None`` disables quotas entirely (the default).  Clients that
    send no ``client`` id share the ``"anonymous"`` bucket.  ``denied``
    counts the requests shed so far.
    """

    def __init__(self, rate: float | None, burst: int | None = None,
                 clock=time.monotonic):
        self.rate = None if rate is None else float(rate)
        self.burst = (max(1, int(burst if burst is not None
                                 else (rate or 1))))
        self.denied = 0
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.rate is not None

    def allow(self, client: str | None) -> bool:
        """Admit one request for ``client``; ``True`` when within quota."""
        if self.rate is None:
            return True
        key = str(client) if client else "anonymous"
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst,
                                     clock=self._clock)
                self._buckets[key] = bucket
        if bucket.try_take():
            return True
        with self._lock:
            self.denied += 1
        return False


# -- the model table ---------------------------------------------------------

def _version(spec: str) -> int | None:
    """The version of a canonical ``name@<version>`` spec, else ``None``."""
    name, _, version = str(spec).partition("@")
    if name and version.isdigit() and version == str(int(version)):
        return int(version)
    return None


class ModelCache:
    """A service's model table: pinned models, an LRU, and the aliases.

    Pinned entries -- startup, ``reload`` and job hot-loads, all through
    :meth:`pin` -- are never evicted.  With ``capacity >= 1`` any other
    published ``name@version`` loads on first use into an LRU of that
    size; evicting an entry drains its batcher, and because the registry
    is content-addressed, reloading the model later reproduces it -- and
    its generations -- byte-identically.  ``capacity=0`` (a single
    server's default) serves pinned models only.
    """

    def __init__(self, registry: ModelRegistry | None = None,
                 capacity: int = 0, batcher_kwargs: dict | None = None):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0 models")
        self.registry = registry
        self.capacity = int(capacity)
        self._batcher_kwargs = dict(batcher_kwargs or {})
        self.pinned: dict[str, MicroBatcher] = {}
        self.aliases: dict[str, str] = {}
        # Without an LRU nothing is ever cached; an empty dict answers
        # the same reads.
        self._entries = LRUCache(capacity) if capacity else {}
        self._lock = threading.Lock()
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def resolve(self, spec) -> str:
        """The served spec that ``spec`` names: the one alias policy.

        ``name`` and ``name@latest`` follow the alias map, which
        :meth:`pin` points at the newest pinned version of each name.  A
        canonical ``name@version`` is served as is when it is pinned or
        the LRU can load it.  With an LRU, an alias not pinned yet is
        resolved once against the registry and pinned, so every later
        request -- and every retry of one -- sees the same version even
        while a publish races it; only :meth:`pin` moves it on.
        """
        spec = str(spec)
        canonical = self.aliases.get(spec)
        if canonical is not None:
            return canonical
        if spec in self.pinned or (self.capacity
                                   and _version(spec) is not None):
            return spec
        if not self.capacity or self.registry is None:
            raise ModelNotFound(
                f"no model {spec!r} is being served "
                f"(serving: {sorted(self.pinned)})")
        record = self.registry.resolve(spec)
        if spec in (record.name, f"{record.name}@latest"):
            self.pin(record.spec)
        return record.spec

    def pin(self, spec: str) -> None:
        """Pin canonical ``spec``; the newest pinned version of its name
        takes the ``name`` and ``name@latest`` aliases.

        A table with no LRU loads the model now (it has no other way to
        serve it); a table with an LRU pins the aliases only and loads
        the model on first use.  Pinning a spec twice is a no-op
        (content addressing means the bytes are the same).
        """
        name = str(spec).partition("@")[0]
        version = _version(spec)
        if version is None:
            raise ValueError(f"pin needs a canonical name@version spec, "
                             f"got {spec!r}")
        model = None
        if not self.capacity and spec not in self.pinned:
            model = self.registry.load(spec)
        with self._lock:
            if self._closed:
                return
            if model is not None and spec not in self.pinned:
                self.pinned[spec] = MicroBatcher(model, name=spec,
                                                 **self._batcher_kwargs)
                obs_metrics.counter("serve.models_loaded").inc()
            current = self.aliases.get(name)
            if current is None or version >= (_version(current) or 0):
                self.aliases[name] = spec
                self.aliases[f"{name}@latest"] = spec

    def get(self, spec) -> MicroBatcher:
        """The batcher serving ``spec``, loading and evicting as needed.

        A pinned or cached canonical spec is served from memory without
        touching the registry.  Raises :class:`ModelNotFound` for specs
        this table cannot serve and other :class:`RegistryError`
        subclasses for damaged registries -- the service maps those to
        protocol error codes.
        """
        spec = self.resolve(spec)
        batcher = self.pinned.get(spec)
        if batcher is not None:
            return batcher
        with self._lock:
            batcher = self._entries.get(spec)
            if batcher is not None:
                self.hits += 1
                obs_metrics.counter("serve.cache.hits").inc()
                return batcher
            record = self.registry.resolve(spec)
            self.misses += 1
            obs_metrics.counter("serve.cache.misses").inc()
            batcher = MicroBatcher(self.registry.load(record),
                                   name=record.spec,
                                   **self._batcher_kwargs)
            evicted = self._entries.put(record.spec, batcher)
            if evicted:
                self.evictions += len(evicted)
                obs_metrics.counter("serve.cache.evictions").inc(
                    len(evicted))
        # Draining the evicted batcher outside the lock keeps other
        # lookups responsive; a racing submit on the evicted batcher
        # sees BatcherClosed and the service's admission retry reloads.
        for old in evicted:
            old.close(drain=True)
        return batcher

    def specs(self) -> list[str]:
        """Currently cached (LRU) specs, least-recent first."""
        with self._lock:
            return list(self._entries.keys())

    def stats(self) -> dict:
        with self._lock:
            return {"capacity": self.capacity,
                    "cached": len(self._entries),
                    "specs": list(self._entries.keys()),
                    "pinned": sorted(self.pinned),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    def describe(self) -> list[dict]:
        """One row per served spec, for the ``models`` op.

        Rows cover pinned and cached models and alias targets; a target
        with no batcher in this process (a fleet router's, or one not
        loaded yet) reports ``batch_rows`` / ``deterministic`` as
        ``None``.
        """
        with self._lock:
            batchers = {**dict(self._entries.items()), **self.pinned}
            aliases = dict(self.aliases)
        rows = []
        for spec in sorted(set(batchers) | set(aliases.values())):
            batcher = batchers.get(spec)
            rows.append({
                "spec": spec,
                "aliases": sorted(a for a, c in aliases.items()
                                  if c == spec),
                "batch_rows": batcher.max_batch_rows if batcher else None,
                "deterministic": (batcher.deterministic if batcher
                                  else None)})
        return rows

    def close(self, drain: bool = True) -> None:
        """Stop every batcher; with ``drain``, finish admitted work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True  # also blocks late pins
            batchers = [*self.pinned.values(),
                        *(batcher for _, batcher in self._entries.items())]
        for batcher in batchers:
            batcher.close(drain=drain)


# -- the front door ----------------------------------------------------------

class GenerationService:
    """Request dispatch over a model table or a replica fleet.

    Args:
        models: Mapping of spec -> trained model, pinned for the
            service's lifetime (specs are what clients send,
            conventionally ``name@version``).
        aliases: Optional extra spec -> served-spec mapping.
        registry: The :class:`ModelRegistry` behind ``reload``, job
            hot-loads and lazy loading.
        model_cache: LRU capacity, per serving process, for registry
            versions loaded on first use (0: pinned models only).
        replicas: With ``>= 1``, ``generate`` runs through a
            :class:`~repro.serve.fleet.Fleet` of that many replicas.
        quota_rps / quota_burst: Per-client token-bucket rate limit on
            ``generate``; ``quota_rps=None`` (default) disables quotas.
        max_batch_rows / max_wait_ms / max_queue_rows: Batcher knobs,
            shared by every model (see :class:`MicroBatcher`).
        max_request_n: Per-request object cap (``bad_request`` beyond).
        request_timeout / respawn_policy: :class:`Fleet` knobs.
        clock: Injectable monotonic clock for quota tests.
    """

    def __init__(self, models: dict | None = None,
                 aliases: dict | None = None, *,
                 registry: ModelRegistry | None = None,
                 model_cache: int = 0, replicas: int = 0,
                 quota_rps: float | None = None,
                 quota_burst: int | None = None,
                 max_batch_rows: int | None = None,
                 max_wait_ms: float = 2.0, max_queue_rows: int = 4096,
                 max_request_n: int = DEFAULT_MAX_REQUEST_N,
                 request_timeout: float = 60.0, respawn_policy=None,
                 clock=time.monotonic):
        batcher_kwargs = dict(max_batch_rows=max_batch_rows,
                              max_wait_ms=max_wait_ms,
                              max_queue_rows=max_queue_rows)
        self.registry = registry
        self.cache = ModelCache(registry, model_cache, batcher_kwargs)
        for spec, model in (models or {}).items():
            self.cache.pinned[spec] = MicroBatcher(model, name=spec,
                                                   **batcher_kwargs)
        self.cache.aliases.update(aliases or {})
        self.batchers = self.cache.pinned  # the same dicts, for callers
        self.aliases = self.cache.aliases
        self.max_request_n = int(max_request_n)
        self.quotas = ClientQuotas(quota_rps, quota_burst, clock=clock)
        self.jobs = None  # a JobSupervisor, via attach_jobs()
        self._closed = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self.fleet = None
        if replicas > 0:
            self.fleet = Fleet(
                registry, replicas,
                dict(batcher_kwargs, model_cache=int(model_cache),
                     max_request_n=self.max_request_n),
                request_timeout=request_timeout,
                respawn_policy=respawn_policy)

    @classmethod
    def from_registry(cls, registry: ModelRegistry,
                      specs: list[str] | None = None,
                      allow_empty: bool = False,
                      **kwargs) -> "GenerationService":
        """A service over ``registry`` with its specs pinned at startup.

        ``specs=None`` pins the latest version of every published model.
        Each resolved model is served under its canonical
        ``name@version`` spec; ``name`` and ``name@latest`` alias to the
        newest resolved version of that name.  ``allow_empty`` permits
        starting with no published models (a server whose first models
        arrive by training, or that loads them lazily).
        """
        specs = list(specs) if specs else registry.models()
        if not specs and not allow_empty:
            raise ModelNotFound(
                f"registry {registry.root!r} has no published models")
        records = [registry.resolve(spec) for spec in specs]
        service = cls(registry=registry, **kwargs)
        try:
            for record in records:
                service.cache.pin(record.spec)
        except BaseException:
            service.close(drain=False)
            raise
        return service

    def lookup(self, spec) -> MicroBatcher:
        """The local batcher serving ``spec`` (aliases resolved)."""
        return self.cache.get(spec)

    # -- model management ----------------------------------------------------
    def attach_jobs(self, supervisor) -> None:
        """Enable the job verbs and pin the models the jobs publish."""
        self.jobs = supervisor
        supervisor.on_publish = self._on_job_publish

    def _on_job_publish(self, record) -> None:
        """Supervisor hook: serve the freshly published model at once
        (``record.result`` is the publish receipt)."""
        if self.registry is None or not record.result:
            return
        self.cache.pin(record.result["spec"])

    def reload(self) -> dict:
        """Pin the newest published version of every registry name.

        This is the zero-downtime ``@latest`` flip: ``name`` and
        ``name@latest`` move to the newest version, older pinned
        versions stay served under their canonical spec, and no request
        is dropped.  Returns the alias map.
        """
        if self.registry is not None:
            for name in self.registry.models():
                self.cache.pin(self.registry.resolve(name).spec)
        obs_events.emit("serve.reload", transient=True)
        return dict(self.cache.aliases)

    def fleet_status(self) -> dict:
        """Replica health, routing totals, aliases and quota config.

        A server without replicas reports an empty replica list and
        zero routing totals.
        """
        status = (self.fleet.fleet_status() if self.fleet is not None
                  else {"replicas": [], "totals": {"routed": 0,
                                                   "retried": 0,
                                                   "respawns": 0}})
        status["totals"]["rate_limited"] = self.quotas.denied
        status["aliases"] = dict(self.cache.aliases)
        status["quota"] = ({"rps": self.quotas.rate,
                            "burst": self.quotas.burst}
                           if self.quotas.enabled else None)
        return status

    # -- dispatch ------------------------------------------------------------
    _error = staticmethod(protocol.error_response)

    def handle(self, header: dict, payload: bytes = b""
               ) -> tuple[dict, bytes]:
        """Serve one request; returns ``(header, payload)``.

        Never raises for request-level problems -- they become
        well-formed error responses.  This is the single entry point for
        every transport (sockets, in-process) and every deployment
        (single server, fleet router, replica).  ``payload`` carries the
        training dataset of a ``submit``; every other op ignores it.
        """
        with self._inflight_cv:
            if self._closed:
                return self._error(protocol.ERR_SHUTTING_DOWN,
                                   "server is draining")
            self._inflight += 1
        try:
            op = header.get("op")
            if op == "generate":
                return self._generate(header)
            if op == "ping":
                return {"status": "ok"}, b""
            if op == "models":
                return {"status": "ok",
                        "models": self.cache.describe()}, b""
            if op == "stats":
                info = {"status": "ok", "models": self.cache.describe(),
                        "cache": self.cache.stats(),
                        "fleet": self.fleet_status()}
                if obs_metrics.enabled():
                    info["metrics"] = obs_metrics.current().dump()
                return info, b""
            if op == "fleet_status":
                return {"status": "ok", "fleet": self.fleet_status()}, b""
            if op == "reload":
                try:
                    return {"status": "ok", "aliases": self.reload()}, b""
                except RegistryError as exc:
                    return self._error(protocol.ERR_INTERNAL,
                                       f"reload failed: {exc}")
            if op in ("submit", "status", "cancel", "jobs"):
                return self._handle_job_op(op, header, payload)
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"unknown op {op!r} (expected ping, "
                               f"models, generate, stats, fleet_status, "
                               f"reload, submit, status, cancel, or "
                               f"jobs)")
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _generate(self, header: dict) -> tuple[dict, bytes]:
        try:
            spec, n, seed = protocol.parse_generate(header,
                                                    self.max_request_n)
        except protocol.BadRequest as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        if not self.quotas.allow(header.get("client")):
            obs_metrics.counter("serve.rate_limited").inc()
            return self._error(
                protocol.ERR_RATE_LIMITED,
                f"client {header.get('client') or 'anonymous'!r} is over "
                f"its {self.quotas.rate:g} req/s quota "
                f"(burst {self.quotas.burst}); back off and retry")
        # lookup + submit retries: an LRU entry may be evicted and closed
        # by another thread between lookup and submit; looking up again
        # reloads the model.  Pinned models never close early, so the
        # loop then runs once.
        future = None
        for _ in range(3):
            try:
                if self.fleet is not None:
                    return self.fleet.generate(self.cache.resolve(spec),
                                               n, seed)
                batcher = self.cache.get(spec)
                future = batcher.submit(n, seed)
                break
            except ModelNotFound as exc:
                return self._error(protocol.ERR_MODEL_NOT_FOUND, str(exc))
            except RegistryError as exc:
                return self._error(protocol.ERR_INTERNAL,
                                   f"model load failed: {exc}")
            except QueueFull as exc:
                return self._error(protocol.ERR_BUSY, str(exc))
            except BatcherClosed as exc:
                if self._closed:
                    return self._error(protocol.ERR_SHUTTING_DOWN,
                                       str(exc))
        if future is None:
            return self._error(protocol.ERR_INTERNAL,
                               f"model {spec!r} kept closing during "
                               f"admission (eviction thrash)")
        try:
            dataset = future.result()
        except BatcherClosed as exc:
            return self._error(protocol.ERR_SHUTTING_DOWN, str(exc))
        except Exception as exc:
            return self._error(protocol.ERR_INTERNAL,
                               f"generation failed: {exc}")
        payload = protocol.dataset_to_bytes(dataset)
        return {"status": "ok", "n": n, "seed": seed,
                "model": batcher.name,
                "payload_bytes": len(payload)}, payload

    # -- job verbs -----------------------------------------------------------
    def _handle_job_op(self, op: str, header: dict, payload: bytes
                       ) -> tuple[dict, bytes]:
        if self.jobs is None:
            return self._error(
                protocol.ERR_JOBS_DISABLED,
                f"this server has no job orchestration (op {op!r}); "
                f"start it with a job store (--jobs-dir)")
        if op == "jobs":
            return {"status": "ok", "jobs": self.jobs.jobs()}, b""
        if op == "submit":
            return self._handle_submit(header, payload)
        job_id = header.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"op {op!r} needs a job_id string, "
                               f"got {job_id!r}")
        try:
            if op == "status":
                return {"status": "ok",
                        "job": self.jobs.status(job_id)}, b""
            return {"status": "ok", "job": self.jobs.cancel(job_id)}, b""
        except UnknownJob as exc:
            return self._error(protocol.ERR_JOB_NOT_FOUND, str(exc))
        except JobError as exc:
            return self._error(protocol.ERR_INTERNAL, str(exc))

    def _handle_submit(self, header: dict, payload: bytes
                       ) -> tuple[dict, bytes]:
        from repro.backends import UnknownBackend, get_backend

        name = header.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name or ""):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"submit needs a valid model name "
                               f"(letters, digits, '.', '_', '-'), "
                               f"got {name!r}")
        backend_name = header.get("backend", "doppelganger")
        try:
            backend = get_backend(backend_name)
        except UnknownBackend as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        train = header.get("train") or {}
        if not isinstance(train, dict):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"train must be a JSON object, "
                               f"got {train!r}")
        try:
            train = validate_train_overrides(train, backend)
        except JobError as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        if not payload:
            return self._error(protocol.ERR_BAD_REQUEST,
                               "submit needs the training dataset as "
                               "the request payload (npz bytes)")
        try:
            protocol.dataset_from_bytes(payload)
        except protocol.ProtocolError as exc:
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"submit payload is not a dataset "
                               f"archive: {exc}")
        evaluate = header.get("evaluate") or {}
        if not isinstance(evaluate, dict):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"evaluate must be a JSON object, "
                               f"got {evaluate!r}")
        try:
            evaluate = validate_evaluate_options(evaluate)
        except JobError as exc:
            return self._error(protocol.ERR_BAD_REQUEST, str(exc))
        faults_spec = header.get("faults") or []
        if not isinstance(faults_spec, list):
            return self._error(protocol.ERR_BAD_REQUEST,
                               "faults must be a list of fault specs")
        max_attempts = header.get("max_attempts")
        if max_attempts is not None and (
                not isinstance(max_attempts, int)
                or isinstance(max_attempts, bool) or max_attempts < 1):
            return self._error(protocol.ERR_BAD_REQUEST,
                               f"max_attempts must be a positive "
                               f"integer, got {max_attempts!r}")
        record = self.jobs.submit(name, backend.name, payload,
                                  train=train, max_attempts=max_attempts,
                                  faults=faults_spec, evaluate=evaluate)
        return {"status": "ok", "job": record.public()}, b""

    # -- lifecycle -----------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admission; with ``drain``, finish every in-flight request.

        Ordering matters: requests already inside :meth:`handle` finish
        -- batcher passes or replica round-trips -- *before* batchers
        close and replicas get SIGTERM, otherwise a drain would stop the
        very backends serving it.
        """
        with self._inflight_cv:
            if self._closed:
                return
            self._closed = True
            if drain:
                deadline = time.monotonic() + timeout
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cv.wait(remaining)
        if self.fleet is not None:
            self.fleet.close(timeout=timeout)
        self.cache.close(drain=drain)

    def __enter__(self) -> "GenerationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Server:
    """Threaded loopback-socket front end for a :class:`GenerationService`.

    ``port=0`` binds an ephemeral port; the bound address is available as
    :attr:`address` immediately after construction.
    """

    def __init__(self, service: GenerationService,
                 host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 64):
        self.service = service
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._closing = False
        self._conn_lock = threading.Lock()
        self._conns: dict[int, socket.socket] = {}
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept",
            daemon=True)
        self._accept_thread.start()

    # -- connection handling -------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed -> shutdown
                return
            with self._conn_lock:
                if self._closing:
                    conn.close()
                    continue
                self._conns[conn.fileno()] = conn
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name=f"repro-serve-conn-{conn.fileno()}", daemon=True)
                self._threads.append(thread)
            obs_metrics.counter("serve.connections").inc()
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        key = conn.fileno()
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while True:
                try:
                    header, request_payload = protocol.read_message(rfile)
                except EOFError:
                    return
                except (protocol.ProtocolError, OSError):
                    return  # drop malformed/broken connections
                if self._closing:
                    response, payload = protocol.error_response(
                        protocol.ERR_SHUTTING_DOWN, "server is draining")
                else:
                    response, payload = self._handle(header,
                                                     request_payload)
                try:
                    protocol.write_message(wfile, response, payload)
                except (OSError, ValueError):
                    return  # peer went away mid-response
        finally:
            for handle in (rfile, wfile):
                try:
                    handle.close()
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._conns.pop(key, None)

    def _handle(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        """``service.handle``, with a raise answered as ``internal``.

        A raising handler is a bug, not a request error: it is counted
        and emitted, and the connection keeps serving.
        """
        try:
            return self.service.handle(header, payload)
        except Exception as exc:
            obs_metrics.counter("serve.internal_errors").inc()
            obs_events.emit("serve.internal_error",
                            {"op": str(header.get("op"))},
                            volatile={"error": repr(exc)}, transient=True)
            return protocol.error_response(
                protocol.ERR_INTERNAL,
                f"internal error handling {header.get('op')!r}: "
                f"{type(exc).__name__}: {exc}")

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful stop: drain admitted work, then close the socket.

        Order matters: (1) refuse new connections, (2) mark draining so
        freshly read requests get ``shutting_down``, (3) close the
        service -- with ``drain=True`` this blocks until every admitted
        request has completed and its handler can write the response,
        (4) nudge idle connections closed and join handler threads.
        """
        with self._conn_lock:
            if self._closing:
                return
            self._closing = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutting the socket down first makes accept() return.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._accept_thread.join(timeout=timeout)
        self.service.close(drain=drain)
        # Handlers blocked in read_message on idle connections never see
        # the flag; shutting down the read side unblocks them.  Handlers
        # mid-response finish their write first (SHUT_RD leaves the write
        # side open).
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
