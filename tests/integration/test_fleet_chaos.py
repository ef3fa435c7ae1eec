"""Chaos test: SIGKILL replicas under a live fleet and prove the client
never notices -- requests retry onto healthy replicas byte-identically,
the supervisor respawns the dead process on a bounded backoff, and every
failure the client *can* see is a structured :class:`ServeError`.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.resilience.retry import RetryPolicy
from repro.serve import (GenerationService, ModelRegistry, ServeClient,
                         ServeError, Server)
from repro.serve.fleet import route_index
from tests.conftest import tiny_dg_config
from tests.serve.conftest import assert_datasets_identical


@pytest.fixture(scope="module")
def chaos_world(tiny_gcut, tmp_path_factory):
    model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(iterations=6))
    model.fit(tiny_gcut)
    registry = ModelRegistry(tmp_path_factory.mktemp("chaos-reg"))
    registry.publish("wwt", model)
    return registry, model


def _direct(model, n, seed):
    return model.generate(n, rng=np.random.default_rng(seed))


def _pid_of(status, index):
    return next(r["pid"] for r in status["replicas"]
                if r["replica"] == index)


def _wait_all_healthy(client, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.fleet_status()
        if all(r["state"] == "healthy" for r in status["replicas"]):
            return status
        time.sleep(0.1)
    raise AssertionError(
        f"fleet never returned to full health: {client.fleet_status()}")


def test_kill_routed_replica_retries_byte_identically(chaos_world):
    """Kill exactly the replica a request routes to; the reply must
    still arrive and still be byte-identical to direct generation."""
    registry, model = chaos_world
    with GenerationService.from_registry(
            registry, replicas=3, model_cache=2,
            request_timeout=30.0) as fleet:
        with Server(fleet) as server:
            with ServeClient(*server.address, timeout=120) as client:
                # Warm every replica so each holds open state.
                for seed in range(6):
                    client.generate("wwt", 4, seed=seed)
                status = _wait_all_healthy(client)
                n, seed = 8, 17
                victim = route_index("wwt@1", n, seed, 3)
                os.kill(_pid_of(status, victim), signal.SIGKILL)
                served = client.generate("wwt", n, seed=seed)
                assert_datasets_identical(served, _direct(model, n, seed))
                status = client.fleet_status()
                assert status["totals"]["retried"] >= 1
                # Supervisor respawns the victim with bounded backoff.
                status = _wait_all_healthy(client)
                row = next(r for r in status["replicas"]
                           if r["replica"] == victim)
                assert row["restarts"] >= 1
                assert status["totals"]["respawns"] >= 1
                # Post-respawn, the same request routes and matches.
                assert_datasets_identical(
                    client.generate("wwt", n, seed=seed),
                    _direct(model, n, seed))


def test_kill_mid_request_is_invisible_to_the_client(chaos_world):
    """SIGKILL the serving replica while a request is in flight: the
    router retries it on a healthy replica before replying."""
    registry, model = chaos_world
    with GenerationService.from_registry(
            registry, replicas=2, model_cache=2,
            request_timeout=30.0) as fleet:
        with Server(fleet) as server:
            with ServeClient(*server.address, timeout=120) as client:
                for seed in range(4):
                    client.generate("wwt", 4, seed=seed)
                status = _wait_all_healthy(client)
                n, seed = 64, 23  # big enough to be in flight a while
                victim = route_index("wwt@1", n, seed, 2)
                pid = _pid_of(status, victim)
                result = {}

                def issue():
                    result["data"] = client.generate("wwt", n, seed=seed)

                worker = threading.Thread(target=issue)
                worker.start()
                time.sleep(0.05)  # let the forward reach the replica
                os.kill(pid, signal.SIGKILL)
                worker.join(timeout=120)
                assert not worker.is_alive()
                assert_datasets_identical(result["data"],
                                          _direct(model, n, seed))
                _wait_all_healthy(client)


def test_total_outage_surfaces_structured_errors_only(chaos_world):
    """Kill *every* replica with respawns slowed: the client must see a
    ServeError with a machine-readable code, never a socket exception."""
    registry, model = chaos_world
    slow = RetryPolicy(max_attempts=2, base_delay=0.05, multiplier=2.0,
                       max_delay=0.1)
    with GenerationService.from_registry(
            registry, replicas=2, model_cache=2,
            request_timeout=5.0, respawn_policy=slow) as fleet:
        with Server(fleet) as server:
            with ServeClient(*server.address, timeout=120) as client:
                client.generate("wwt", 4, seed=0)
                status = client.fleet_status()
                for row in status["replicas"]:
                    os.kill(row["pid"], signal.SIGKILL)
                observed = []
                for attempt in range(4):
                    try:
                        data = client.generate("wwt", 4, seed=attempt)
                    except ServeError as exc:
                        observed.append(exc.code)
                    except Exception as exc:  # pragma: no cover
                        pytest.fail(f"client leaked a raw exception: "
                                    f"{type(exc).__name__}: {exc}")
                    else:
                        # A respawned replica caught the request; it
                        # must still be byte-identical.
                        assert_datasets_identical(
                            data, _direct(model, 4, attempt))
                assert all(isinstance(code, str) and code
                           for code in observed)
                # Once the supervisor restores the fleet, service
                # resumes byte-identically -- the outage left no state.
                _wait_all_healthy(client)
                assert_datasets_identical(
                    client.generate("wwt", 9, seed=41),
                    _direct(model, 9, 41))
