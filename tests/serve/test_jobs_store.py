"""Durable job records: JobStore, JobRecord, and recovery semantics."""

import json
import os

import pytest

from repro.serve.jobs import (TERMINAL_STATES, JobError, JobRecord,
                              JobStore, UnknownJob, job_progress,
                              validate_train_overrides)


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


def _create(store, name="m", **kwargs):
    return store.create(name, "doppelganger", b"npz-bytes", **kwargs)


class TestJobRecord:
    def test_round_trips_through_json(self):
        record = JobRecord(job_id="job-000003", name="m",
                           backend="doppelganger",
                           train={"iterations": 5}, state="running",
                           attempts=2, max_attempts=4,
                           error="worker exited with code 137")
        assert JobRecord.from_json(record.to_json()) == record

    def test_public_view_hides_fault_specs(self):
        record = JobRecord(job_id="job-000001", name="m",
                           backend="doppelganger",
                           faults=[{"site": "trainer.step",
                                    "action": "kill", "step": 1}])
        public = record.public()
        assert "faults" not in public
        assert public["job_id"] == "job-000001"
        assert public["state"] == "queued"

    def test_terminal_states_are_the_documented_three(self):
        assert set(TERMINAL_STATES) == {"completed", "failed",
                                        "cancelled"}


class TestValidateTrainOverrides:
    def test_accepts_known_keys(self):
        train = validate_train_overrides(
            {"iterations": 20, "batch_size": 8, "sentinel": True})
        assert train == {"iterations": 20, "batch_size": 8,
                         "sentinel": True}

    def test_rejects_unknown_keys(self):
        with pytest.raises(JobError, match="unknown training option"):
            validate_train_overrides({"learning_rate": 0.1})

    def test_rejects_non_integer_values(self):
        with pytest.raises(JobError, match="iterations"):
            validate_train_overrides({"iterations": "many"})

    def test_rejects_bool_where_int_expected(self):
        with pytest.raises(JobError, match="batch_size"):
            validate_train_overrides({"batch_size": True})


    @pytest.mark.parametrize("key,value", [
        ("sentinel", True), ("checkpoint_every", 5), ("sample_len", 4),
        ("max_retries", 2)])
    def test_doppelganger_only_keys_refused_for_other_backends(self, key,
                                                                value):
        """Refused at submit with the CLI's message, never ignored."""
        flag = "--" + key.replace("_", "-")
        with pytest.raises(JobError, match=f"^{flag} is only supported "
                                           f"by the doppelganger backend$"):
            validate_train_overrides({key: value, "iterations": 3}, "hmm")
        assert validate_train_overrides({key: value}, "doppelganger") \
            == {key: value}
        assert validate_train_overrides({key: value}, "dg") == {key: value}


class TestJobStore:
    def test_create_assigns_dense_ordered_ids(self, store):
        created = [_create(store) for _ in range(3)]
        assert [r.job_id for r in created] == [
            "job-000001", "job-000002", "job-000003"]
        assert [r.job_id for r in store.list()] == [
            "job-000001", "job-000002", "job-000003"]

    def test_ids_continue_after_reopen(self, store, tmp_path):
        _create(store)
        _create(store)
        reopened = JobStore(tmp_path / "jobs")
        assert _create(reopened).job_id == "job-000003"

    def test_create_persists_record_and_dataset(self, store):
        record = _create(store, train={"iterations": 7})
        loaded = store.get(record.job_id)
        assert loaded.state == "queued"
        assert loaded.train == {"iterations": 7}
        with open(store.data_path(record.job_id), "rb") as handle:
            assert handle.read() == b"npz-bytes"

    def test_update_is_atomic_no_tmp_left_behind(self, store):
        record = _create(store)
        record.state = "running"
        record.attempts = 1
        store.update(record)
        job_dir = store.job_dir(record.job_id)
        leftovers = [f for f in os.listdir(job_dir) if ".tmp" in f]
        assert leftovers == []
        assert store.get(record.job_id).state == "running"

    def test_get_unknown_job_raises(self, store):
        with pytest.raises(UnknownJob, match="job-999999"):
            store.get("job-999999")

    def test_get_rejects_malformed_ids(self, store):
        # A path-traversal-shaped id must not resolve to a record.
        with pytest.raises(JobError):
            store.get("../../etc/passwd")

    def test_corrupt_record_surfaces_as_job_error(self, store):
        record = _create(store)
        with open(store.record_path(record.job_id), "w",
                  encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(JobError, match="unreadable"):
            store.get(record.job_id)

    def test_read_result_none_until_receipt_exists(self, store):
        record = _create(store)
        assert store.read_result(record.job_id) is None
        receipt = {"spec": "m@1", "sha256": "0" * 64}
        with open(store.result_path(record.job_id), "w",
                  encoding="utf-8") as handle:
            json.dump(receipt, handle)
        assert store.read_result(record.job_id) == receipt


class TestJobProgress:
    def test_no_events_yet_yields_empty_progress(self, store):
        record = _create(store)
        progress = job_progress(store, record)
        assert progress["iteration"] is None
        assert progress["rollbacks"] == 0

    def test_progress_reads_latest_attempt_events(self, store):
        record = _create(store)
        record.attempts = 2
        events = [
            {"kind": "train.start",
             "payload": {"iterations": 10, "start_iteration": 6}},
            {"kind": "train.iteration",
             "payload": {"iteration": 7, "d_loss": 0.5, "g_loss": 1.5}},
            {"kind": "sentinel.rollback", "payload": {"iteration": 8}},
            {"kind": "train.iteration",
             "payload": {"iteration": 9, "d_loss": 0.4, "g_loss": 1.2}},
        ]
        from repro.observability.events import EventLog
        log = EventLog(store.events_path(record.job_id, 2),
                       run_id=record.job_id)
        for event in events:
            log.emit(event["kind"], event["payload"])
        log.close()
        progress = job_progress(store, record)
        assert progress["iteration"] == 9
        assert progress["iterations"] == 10
        assert progress["d_loss"] == 0.4
        assert progress["g_loss"] == 1.2
        assert progress["rollbacks"] == 1
        assert progress["resumed_from"] == 6


class TestCompletion:
    """The supervisor hot-loads a finished job before it reports it
    ``completed``, and a failed hot-load is counted and emitted."""

    RECEIPT = {"spec": "m@1", "name": "m", "version": 1,
               "sha256": "0" * 64, "nbytes": 1,
               "backend": "doppelganger"}

    def _finished(self, store):
        """A job whose worker wrote its receipt but was never reaped."""
        record = _create(store)
        record.state = "running"
        record.attempts = 1
        store.update(record)
        with open(store.result_path(record.job_id), "w",
                  encoding="utf-8") as fh:
            json.dump(self.RECEIPT, fh)
        return record

    def test_hot_load_runs_before_completed_is_persisted(self, store,
                                                         tmp_path):
        from repro.serve.jobs import JobSupervisor
        record = self._finished(store)
        seen = []

        def on_publish(published):
            seen.append((store.get(published.job_id).state,
                         published.result["spec"]))

        supervisor = JobSupervisor(store, tmp_path / "registry",
                                   on_publish=on_publish)
        supervisor.recover()
        assert seen == [("running", "m@1")]
        final = store.get(record.job_id)
        assert final.state == "completed"
        assert final.result == self.RECEIPT

    def test_failed_hot_load_is_counted_and_emitted(self, store,
                                                    tmp_path):
        from repro.observability import events as obs_events
        from repro.observability import metrics as obs_metrics
        from repro.serve.jobs import JobSupervisor
        record = self._finished(store)

        def on_publish(published):
            raise RuntimeError("model load failed")

        supervisor = JobSupervisor(store, tmp_path / "registry",
                                   on_publish=on_publish)
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry), \
                obs_events.EventLog(tmp_path / "events.jsonl") as log, \
                obs_events.capture(log):
            supervisor.recover()
        assert registry.dump()["counters"]["jobs.hot_load_failed"] == 1
        failed = [e for e in log.events if e.kind == "jobs.hot_load_failed"]
        assert [e.payload for e in failed] == [
            {"job_id": record.job_id, "spec": "m@1"}]
        assert "model load failed" in failed[0].volatile["error"]
        # The registry holds the model either way: the job completes,
        # and its record says the hot-load failed.
        final = store.get(record.job_id)
        assert final.state == "completed"
        assert "m@1" in final.error and "hot-loading" in final.error
        assert "model load failed" in final.error
        assert supervisor.status(record.job_id)["error"] == final.error


class TestSupervisorLoop:
    def test_failed_tick_is_counted_emitted_and_survived(self, store,
                                                         tmp_path):
        """One raising ``tick`` bumps ``jobs.tick_failed`` and emits an
        event; the loop keeps ticking (driven synchronously, no timing)."""
        from repro.observability import events as obs_events
        from repro.observability import metrics as obs_metrics
        from repro.serve.jobs import JobSupervisor
        supervisor = JobSupervisor(store, tmp_path / "registry",
                                   poll_interval=0.0)
        calls = []

        def tick(now=None):
            calls.append(now)
            if len(calls) == 1:
                raise RuntimeError("bad round")
            if len(calls) == 3:
                supervisor._stop.set()

        supervisor.tick = tick
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry), \
                obs_events.EventLog(tmp_path / "events.jsonl") as log, \
                obs_events.capture(log):
            supervisor._run()
        assert len(calls) == 3
        assert registry.dump()["counters"]["jobs.tick_failed"] == 1
        failed = [e for e in log.events if e.kind == "jobs.tick_failed"]
        assert len(failed) == 1 and failed[0].transient
        assert "bad round" in failed[0].volatile["error"]
