"""CI fleet smoke: 3 replicas, two models, a SIGKILL, byte-level cmp.

End-to-end check of the multi-replica fleet against freshly trained
TINY models, exercising every contract docs/serving.md promises for
``repro.serve.fleet``:

1. **Byte identity at fleet scale** -- two models served concurrently
   through a 3-replica fleet; every response is compared byte-for-byte
   (down to the serialized npz payload) against direct generation.
2. **Chaos invisibility** -- one replica is SIGKILLed between request
   waves; the next wave must still complete byte-identically (router
   retry), and the supervisor must respawn the victim.
3. **Graceful close** -- the fleet drains and its replica processes all
   exit.
4. **One front door at the CLI** -- ``serve --replicas 2 --jobs-dir``
   takes a training job, hot-serves its published model through the
   replicas, and the served bytes equal ``registry.load(spec)``'s
   direct generation.

Exits non-zero on any violation.  Run::

    PYTHONPATH=src python benchmarks/fleet_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.data.simulators import generate_gcut
from repro.serve import (GenerationService, ModelRegistry, ServeClient,
                         Server)
from repro.serve.bench import train_tiny_model
from repro.serve.protocol import dataset_to_bytes


def fail(message: str) -> None:
    raise SystemExit(f"[fleet_smoke] FAILURE: {message}")


def request_wave(host: int, port: int, models: dict, wave: int) -> None:
    """One concurrent wave: 3 requests per model, all byte-compared."""
    results: dict[tuple, object] = {}
    errors: list[BaseException] = []

    def request(name: str, seed: int) -> None:
        try:
            with ServeClient(host, port, timeout=120) as client:
                results[(name, seed)] = client.generate(name, 9,
                                                        seed=seed)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=request, args=(name, wave * 10 + i))
               for name in models for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        fail(f"wave {wave} requests errored: {errors}")
    if len(results) != 3 * len(models):
        fail(f"wave {wave}: only {len(results)}/{3 * len(models)} "
             f"responses arrived")
    for (name, seed), served in results.items():
        direct = models[name].generate(9, rng=np.random.default_rng(seed))
        if dataset_to_bytes(served) != dataset_to_bytes(direct):
            fail(f"wave {wave}: response for {name} seed {seed} is not "
                 f"byte-identical to direct generation")
    print(f"[fleet_smoke] wave {wave}: {len(results)} concurrent "
          f"responses across {len(models)} models byte-identical")


def main() -> None:
    print("[fleet_smoke] training two TINY models...")
    models = {"alpha": train_tiny_model(seed=7),
              "beta": train_tiny_model(seed=8)}
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        for name, model in models.items():
            record = registry.publish(name, model)
            print(f"[fleet_smoke] published {record.spec} "
                  f"(sha256 {record.sha256[:12]}...)")
        fleet = GenerationService.from_registry(
            registry, replicas=3, model_cache=2, request_timeout=60.0)
        with Server(fleet) as server:
            host, port = server.address
            with ServeClient(host, port, timeout=120) as client:
                if not client.ping():
                    fail("ping failed")
                request_wave(host, port, models, wave=0)

                status = client.fleet_status()
                victim = status["replicas"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                print(f"[fleet_smoke] SIGKILLed replica "
                      f"{victim['replica']} (pid {victim['pid']})")

                request_wave(host, port, models, wave=1)

                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    status = client.fleet_status()
                    if all(r["state"] == "healthy"
                           for r in status["replicas"]):
                        break
                    time.sleep(0.2)
                else:
                    fail(f"fleet never returned to full health: "
                         f"{status}")
                if status["replicas"][0]["restarts"] < 1:
                    fail("victim replica was not respawned")
                print(f"[fleet_smoke] respawn: replica "
                      f"{victim['replica']} restarted "
                      f"(totals: {status['totals']})")

                request_wave(host, port, models, wave=2)
            server.shutdown(drain=True)
        pids = [r["pid"] for r in status["replicas"]]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            live = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                    live.append(pid)
                except OSError:
                    pass
            if not live:
                break
            time.sleep(0.2)
        else:
            fail(f"replica processes survived close: {live}")
        print("[fleet_smoke] close: all replica processes exited")
    cli_jobs_step()
    print("[fleet_smoke] OK")


def _cli(*args: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-m", "repro.cli", *args],
                            env=env, **kwargs)


def cli_jobs_step() -> None:
    """``serve --replicas 2 --jobs-dir``: submit, complete, hot-serve."""
    with tempfile.TemporaryDirectory() as root:
        paths = {name: os.path.join(root, name) for name in
                 ("reg", "jobs", "port", "stop", "data.npz")}
        generate_gcut(30, np.random.default_rng(0),
                      max_length=12).save(paths["data.npz"])
        server = _cli("serve", "--registry", paths["reg"],
                      "--replicas", "2", "--jobs-dir", paths["jobs"],
                      "--port", "0", "--port-file", paths["port"],
                      "--stop-file", paths["stop"])
        try:
            deadline = time.monotonic() + 120
            while not os.path.exists(paths["port"]):
                if server.poll() is not None or time.monotonic() > deadline:
                    fail("serve --replicas 2 --jobs-dir never listened")
                time.sleep(0.1)
            with open(paths["port"], encoding="utf-8") as fh:
                port = fh.read().strip()
            submit = _cli("jobs", "submit", "--port", port,
                          "--data", paths["data.npz"], "--name", "smoke",
                          "--backend", "hmm", "--iterations", "5",
                          "--batch-size", "8", "--hidden", "8",
                          "--seed", "3", "--watch")
            if submit.wait(timeout=300) != 0:
                fail("CLI job on the fleet did not complete")
            with ServeClient("127.0.0.1", int(port), timeout=120) as client:
                served = client.generate("smoke", 9, seed=5)
                routed = client.fleet_status()["totals"]["routed"]
            direct = ModelRegistry(paths["reg"]).load("smoke@1").generate(
                9, rng=np.random.default_rng(5))
            if dataset_to_bytes(served) != dataset_to_bytes(direct):
                fail("job-published model served through the fleet is "
                     "not byte-identical to registry.load(spec)")
            if routed < 1:
                fail("the generate did not go through the replicas")
            print("[fleet_smoke] cli: serve --replicas 2 --jobs-dir "
                  "completed a job and hot-served it byte-identically")
        finally:
            open(paths["stop"], "w").close()
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()


if __name__ == "__main__":
    sys.exit(main())
