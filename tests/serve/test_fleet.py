"""Fleet-backed service tests: deterministic routing, token-bucket
quotas, the introspection ops (fleet_status/reload/models), error-code
mapping and job verbs -- mostly without training a model (replicas
lazy-load, so a registry of unloaded blobs is enough to exercise the
front door and the router).
"""

import time

import numpy as np
import pytest

from repro.data.simulators import generate_gcut
from repro.serve import (GenerationService, InProcessClient, JobStore,
                         JobSupervisor, ModelRegistry, RateLimited,
                         ServeError, Server, ServeClient)
from repro.serve.fleet import route_index
from repro.serve.server import ClientQuotas, TokenBucket
from tests.serve.conftest import assert_datasets_identical


# -- routing -----------------------------------------------------------------

def test_route_index_is_deterministic_and_spread():
    picks = [route_index("m@1", n, seed, 4)
             for n in (1, 8, 64) for seed in range(32)]
    assert picks == [route_index("m@1", n, seed, 4)
                     for n in (1, 8, 64) for seed in range(32)]
    assert all(0 <= p < 4 for p in picks)
    assert len(set(picks)) == 4  # load actually spreads

    # Each argument matters.
    assert route_index("a@1", 4, 7, 16) != route_index("b@1", 4, 7, 16) \
        or route_index("a@1", 5, 7, 16) != route_index("b@1", 5, 7, 16)
    assert route_index("m@1", 4, 0, 1) == 0  # single replica: always 0


# -- quotas ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_token_bucket_refills_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.try_take() for _ in range(4)] == [True, True, True,
                                                     False]
    clock.now = 0.5  # one token back at 2/s
    assert bucket.try_take()
    assert not bucket.try_take()
    clock.now = 100.0  # refill clamps at burst
    assert [bucket.try_take() for _ in range(4)] == [True, True, True,
                                                     False]


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(rate=1, burst=0)


def test_client_quotas_isolate_clients():
    clock = FakeClock()
    quotas = ClientQuotas(rate=1.0, burst=1, clock=clock)
    assert quotas.allow("alice")
    assert not quotas.allow("alice")
    assert quotas.allow("bob")  # separate bucket
    assert quotas.allow(None)   # the shared anonymous bucket
    assert not quotas.allow("")  # empty id == anonymous


def test_disabled_quotas_always_allow():
    quotas = ClientQuotas(rate=None)
    assert not quotas.enabled
    assert all(quotas.allow("x") for _ in range(1000))


# -- the router over a junk-blob registry ------------------------------------

@pytest.fixture(scope="module")
def junk_registry(tmp_path_factory):
    """Two published versions of raw bytes; never loaded by the router
    (only a replica's generate would decode them)."""
    registry = ModelRegistry(tmp_path_factory.mktemp("junk-reg"))
    registry.publish("m", b"not-a-model-v1")
    registry.publish("m", b"not-a-model-v2")
    return registry


@pytest.fixture(scope="module")
def fleet(junk_registry):
    with GenerationService.from_registry(junk_registry, replicas=1,
                                         model_cache=1) as fleet:
        yield fleet


def test_fleet_status_shape(fleet):
    status = fleet.fleet_status()
    assert len(status["replicas"]) == 1
    row = status["replicas"][0]
    assert set(row) == {"replica", "pid", "port", "state", "restarts",
                        "routed"}
    assert row["state"] == "healthy"
    assert status["totals"] == {"routed": 0, "retried": 0,
                                "respawns": 0, "rate_limited": 0}
    assert status["aliases"] == {"m": "m@2", "m@latest": "m@2"}
    assert status["quota"] is None


def test_reload_repins_aliases(tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish("m", b"not-a-model-v1")
    with GenerationService.from_registry(registry, replicas=1,
                                         model_cache=1) as fleet:
        assert fleet.cache.resolve("m@latest") == "m@1"
        registry.publish("m", b"not-a-model-v2")
        # Publishing alone never moves a pinned alias...
        assert fleet.cache.resolve("m@latest") == "m@1"
        # ...reload is the explicit flip.
        aliases = fleet.reload()
        assert aliases == {"m": "m@2", "m@latest": "m@2"}
        assert fleet.cache.resolve("m@latest") == "m@2"
        assert fleet.cache.resolve("m@1") == "m@1"


def test_request_validation_mirrors_single_server(fleet):
    header, payload = fleet.handle({"op": "generate", "model": "m",
                                    "n": -1, "seed": 0})
    assert (header["status"], header["code"]) == ("error", "bad_request")
    header, _ = fleet.handle({"op": "generate", "model": "m",
                              "n": True, "seed": 0})
    assert header["code"] == "bad_request"
    header, _ = fleet.handle({"op": "generate", "model": "m",
                              "n": 4, "seed": "x"})
    assert header["code"] == "bad_request"
    header, _ = fleet.handle({"op": "generate", "model": "ghost",
                              "n": 4, "seed": 0})
    assert header["code"] == "model_not_found"


def test_fleet_with_supervisor_hot_serves_job_model(tmp_path):
    """Job verbs work on a fleet-backed service: the job's model is
    pinned on completion and served through the replicas."""
    data = generate_gcut(30, np.random.default_rng(0), max_length=12)
    registry = ModelRegistry(tmp_path / "registry")
    supervisor = JobSupervisor(JobStore(tmp_path / "jobs"),
                               tmp_path / "registry", poll_interval=0.02)
    with GenerationService.from_registry(registry, allow_empty=True,
                                         replicas=1,
                                         model_cache=1) as fleet:
        fleet.attach_jobs(supervisor)
        client = InProcessClient(fleet)
        with supervisor:
            job = client.submit_job("smoke", data, backend="hmm",
                                    train={"iterations": 5,
                                           "batch_size": 8,
                                           "hidden": 8, "seed": 3})
            deadline = time.monotonic() + 60
            while job["state"] not in ("completed", "failed",
                                       "cancelled"):
                assert time.monotonic() < deadline, job
                time.sleep(0.05)
                job = client.job_status(job["job_id"])
        assert job["state"] == "completed", job["error"]
        assert job["error"] is None
        assert fleet.aliases["smoke"] == "smoke@1"
        assert_datasets_identical(
            client.generate("smoke", 6, seed=4),
            registry.load("smoke@1").generate(
                6, rng=np.random.default_rng(4)))
        assert fleet.fleet_status()["totals"]["routed"] == 1


def test_unknown_op_is_bad_request(fleet):
    header, _ = fleet.handle({"op": "frobnicate"})
    assert header["code"] == "bad_request"
    assert "frobnicate" in header["error"]


def test_rate_limited_end_to_end(junk_registry):
    """Quota denial maps to the rate_limited code at the router and to
    the RateLimited exception at the socket client."""
    clock = FakeClock()
    with GenerationService.from_registry(
            junk_registry, replicas=1, model_cache=1, quota_rps=1.0,
            quota_burst=2, clock=clock) as fleet:
        # Direct dispatch: two admitted (model_not_found is *after* the
        # quota gate proves they were admitted), third shed.
        for _ in range(2):
            header, _ = fleet.handle({"op": "generate", "model": "ghost",
                                      "n": 1, "seed": 0,
                                      "client": "alice"})
            assert header["code"] == "model_not_found"
        header, _ = fleet.handle({"op": "generate", "model": "ghost",
                                  "n": 1, "seed": 0, "client": "alice"})
        assert header["code"] == "rate_limited"
        assert fleet.fleet_status()["totals"]["rate_limited"] == 1
        # Another client has its own bucket.
        header, _ = fleet.handle({"op": "generate", "model": "ghost",
                                  "n": 1, "seed": 0, "client": "bob"})
        assert header["code"] == "model_not_found"

        with Server(fleet) as server:
            with ServeClient(*server.address, timeout=30) as client:
                with pytest.raises(RateLimited) as err:
                    client.generate("ghost", 1, seed=0, client="alice")
                assert err.value.code == "rate_limited"
                assert isinstance(err.value, ServeError)


def test_quota_defaults_burst_to_rate():
    quotas = ClientQuotas(rate=7.9)
    assert quotas.burst == 7
    quotas = ClientQuotas(rate=0.5)
    assert quotas.burst == 1
