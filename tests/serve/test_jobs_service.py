"""The jobs protocol verbs end-to-end over an in-process service.

Uses the fast ``hmm`` backend so the full submit -> running ->
completed -> auto-published -> hot-served loop fits in a seconds-scale
test, with real worker subprocesses underneath.
"""

import io
import time

import numpy as np
import pytest

from repro.data.simulators import generate_gcut
from repro.resilience.retry import RetryPolicy
from repro.serve import protocol
from repro.serve.client import InProcessClient, ServeError
from repro.serve.jobs import JobStore, JobSupervisor
from repro.serve.registry import ModelRegistry
from repro.serve.server import GenerationService

TRAIN = {"iterations": 5, "batch_size": 8, "hidden": 8, "seed": 3}


@pytest.fixture(scope="module")
def dataset():
    return generate_gcut(30, np.random.default_rng(0), max_length=12)


@pytest.fixture
def stack(tmp_path):
    """(service, supervisor, client) wired together, supervisor live."""
    registry = ModelRegistry(tmp_path / "registry")
    service = GenerationService.from_registry(registry,
                                              allow_empty=True)
    supervisor = JobSupervisor(
        JobStore(tmp_path / "jobs"), tmp_path / "registry",
        retry=RetryPolicy(max_attempts=3, base_delay=0.02,
                          multiplier=2.0, max_delay=0.1),
        poll_interval=0.02)
    service.attach_jobs(supervisor)
    supervisor.start()
    client = InProcessClient(service)
    try:
        yield service, supervisor, client
    finally:
        supervisor.stop()
        service.close()


def _wait_terminal(client, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.job_status(job_id)
        if job["state"] in ("completed", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {job['state']} after "
                         f"{timeout}s")


class TestJobLifecycle:
    def test_submit_completes_publishes_and_hot_serves(self, stack,
                                                       dataset):
        service, supervisor, client = stack
        job = client.submit_job("smoke", dataset, backend="hmm",
                                train=TRAIN)
        assert job["state"] == "queued"
        assert job["backend"] == "hmm"

        done = _wait_terminal(client, job["job_id"])
        assert done["state"] == "completed", done.get("error")
        assert done["attempts"] == 1
        assert done["result"]["spec"] == "smoke@1"
        assert done["result"]["backend"] == "hmm"

        # Auto-publish made the model servable without a restart, under
        # its pinned spec and the stolen aliases.
        specs = {m["spec"] for m in client.models()}
        assert "smoke@1" in specs
        pinned = client.generate("smoke@1", 4, seed=9)
        for alias in ("smoke", "smoke@latest"):
            buf_a, buf_b = io.BytesIO(), io.BytesIO()
            pinned.save(buf_a)
            client.generate(alias, 4, seed=9).save(buf_b)
            assert buf_a.getvalue() == buf_b.getvalue()

        # The registry holds the same model, tagged with its backend.
        registry = ModelRegistry(service.registry.root)
        assert registry.resolve("smoke@1").backend == "hmm"

    def test_status_merges_progress_and_jobs_lists_all(self, stack,
                                                       dataset):
        _, _, client = stack
        first = client.submit_job("a", dataset, backend="hmm",
                                  train=TRAIN)
        second = client.submit_job("b", dataset, backend="hmm",
                                   train=TRAIN)
        status = client.job_status(first["job_id"])
        assert "progress" in status
        assert set(status["progress"]) >= {"iteration", "rollbacks"}
        listed = client.jobs()
        assert [j["job_id"] for j in listed] == [first["job_id"],
                                                 second["job_id"]]
        _wait_terminal(client, second["job_id"])

    def test_cancel_queued_job_never_runs(self, tmp_path, dataset):
        registry = ModelRegistry(tmp_path / "registry")
        service = GenerationService.from_registry(registry,
                                                  allow_empty=True)
        supervisor = JobSupervisor(JobStore(tmp_path / "jobs"),
                                   tmp_path / "registry")
        service.attach_jobs(supervisor)  # deliberately never started
        client = InProcessClient(service)
        job = client.submit_job("doomed", dataset, backend="hmm",
                                train=TRAIN)
        cancelled = client.cancel_job(job["job_id"])
        assert cancelled["state"] == "cancelled"
        # Cancelling a terminal job is an idempotent no-op.
        assert client.cancel_job(job["job_id"])["state"] == "cancelled"
        assert supervisor.running() == []
        service.close()


class TestJobValidation:
    def _submit_raises(self, client, code, **kwargs):
        with pytest.raises(ServeError) as exc:
            client.submit_job(**kwargs)
        assert exc.value.code == code

    def test_bad_submissions_are_rejected(self, stack, dataset):
        _, _, client = stack
        bad = protocol.ERR_BAD_REQUEST
        self._submit_raises(client, bad, name="bad/name",
                            dataset=dataset)
        self._submit_raises(client, bad, name="m", dataset=dataset,
                            backend="no-such-backend")
        self._submit_raises(client, bad, name="m", dataset=dataset,
                            train={"learning_rate": 1})
        self._submit_raises(client, bad, name="m", dataset=dataset,
                            backend="hmm", train={"sentinel": True})
        self._submit_raises(client, bad, name="m", dataset=b"not-npz")
        self._submit_raises(client, bad, name="m", dataset=dataset,
                            max_attempts=0)

    def test_unknown_job_id_maps_to_job_not_found(self, stack):
        _, _, client = stack
        for call in (client.job_status, client.cancel_job):
            with pytest.raises(ServeError) as exc:
                call("job-424242")
            assert exc.value.code == protocol.ERR_JOB_NOT_FOUND

    def test_jobs_disabled_without_supervisor(self, tmp_path, dataset):
        registry = ModelRegistry(tmp_path / "registry")
        service = GenerationService.from_registry(registry,
                                                  allow_empty=True)
        client = InProcessClient(service)
        for call in (lambda: client.submit_job("m", dataset),
                     lambda: client.job_status("job-000001"),
                     client.jobs):
            with pytest.raises(ServeError) as exc:
                call()
            assert exc.value.code == protocol.ERR_JOBS_DISABLED
        service.close()
