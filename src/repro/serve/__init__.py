"""repro.serve: model registry + micro-batching generation service.

The serving stack between a trained :class:`DoppelGANger` and its
consumers (docs/serving.md):

- :mod:`repro.serve.registry` -- on-disk, versioned, content-addressed
  model storage (``publish`` / ``resolve`` / ``load``).
- :mod:`repro.serve.batcher` -- micro-batching scheduler that coalesces
  concurrent ``generate(n, seed)`` requests while keeping served output
  byte-identical to direct generation.
- :mod:`repro.serve.protocol` -- length-prefixed JSON + npz framing.
- :mod:`repro.serve.server` -- :class:`GenerationService`, serving's
  one front door: the only request dispatcher (parsing, per-client
  quotas, alias pinning, the op table, drain, error mapping) over a
  model table of pinned models plus an LRU of lazily loaded registry
  versions, and the threaded loopback-socket :class:`Server` with
  bounded admission and graceful drain.
- :mod:`repro.serve.client` -- socket / in-process clients and a load
  generator.
- :mod:`repro.serve.jobs` / :mod:`repro.serve.worker` -- crash-
  recoverable training-as-a-service: durable job records, a supervisor
  that auto-resumes killed workers from their latest checkpoint, and
  auto-publish of finished models back into the registry.
- :mod:`repro.serve.fleet` -- the replica pool a service uses with
  ``replicas >= 1``: N supervised replica processes (each a plain
  ``GenerationService`` over the registry) with deterministic routing
  and replica-death retry -- byte-identical to a single server.
- :mod:`repro.serve.bench` -- the BENCH_serving.json benchmark.
"""

from repro.serve.batcher import BatcherClosed, MicroBatcher, QueueFull
from repro.serve.client import (InProcessClient, LoadReport, RateLimited,
                                ServeClient, ServeError, ServerBusy,
                                run_load)
from repro.serve.fleet import Fleet, route_index
from repro.serve.jobs import (JobError, JobRecord, JobStore,
                              JobSupervisor, UnknownJob, job_progress)
from repro.serve.registry import (CorruptModelBlob, ModelNotFound,
                                  ModelRecord, ModelRegistry,
                                  RegistryError)
from repro.serve.server import (ClientQuotas, GenerationService,
                                ModelCache, Server, TokenBucket)

__all__ = [
    "ModelRegistry", "ModelRecord", "RegistryError", "ModelNotFound",
    "CorruptModelBlob",
    "MicroBatcher", "QueueFull", "BatcherClosed",
    "GenerationService", "Server",
    "ServeClient", "InProcessClient", "ServeError", "ServerBusy",
    "RateLimited",
    "Fleet", "ModelCache", "TokenBucket",
    "ClientQuotas", "route_index",
    "JobStore", "JobRecord", "JobSupervisor", "JobError", "UnknownJob",
    "job_progress",
    "LoadReport", "run_load",
]
