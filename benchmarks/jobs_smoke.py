"""Jobs smoke check for CI: SIGKILL a supervised training worker
mid-run and verify the supervisor auto-resumes the job from its latest
checkpoint and publishes a model byte-identical to an uninterrupted
control run (same blob sha in the content-addressed registry).  The
control's blob must also equal what ``repro.cli train`` writes for the
same options: the CLI and the job worker train through one function.

Usage::

    PYTHONPATH=src python benchmarks/jobs_smoke.py

Exits non-zero on any mismatch: the job failing, no auto-resume
happening, the published bytes drifting from the control's, or the CLI
writing different bytes for the same options.
"""

from __future__ import annotations

import hashlib
import io
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, os.path.abspath(SRC))

from repro.data.simulators import generate_gcut  # noqa: E402
from repro.resilience.retry import RetryPolicy  # noqa: E402
from repro.serve.jobs import JobStore, JobSupervisor  # noqa: E402
from repro.serve.registry import ModelRegistry  # noqa: E402

TRAIN = {"iterations": 120, "batch_size": 8, "hidden": 8,
         "sample_len": 4, "seed": 11, "checkpoint_every": 4}


def _supervisor(workdir: str, tag: str) -> JobSupervisor:
    return JobSupervisor(
        JobStore(os.path.join(workdir, f"jobs-{tag}")),
        os.path.join(workdir, f"registry-{tag}"),
        retry=RetryPolicy(max_attempts=4, base_delay=0.05,
                          multiplier=2.0, max_delay=0.5),
        poll_interval=0.02)


def _wait_terminal(supervisor: JobSupervisor, job_id: str,
                   timeout: float = 300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = supervisor.store.get(job_id)
        if record.state in ("completed", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise SystemExit(f"[smoke] FAIL: job {job_id} still "
                     f"{record.state} after {timeout}s")


def main() -> int:
    dataset = generate_gcut(30, np.random.default_rng(0), max_length=12)
    buffer = io.BytesIO()
    dataset.save(buffer)
    data_bytes = buffer.getvalue()

    with tempfile.TemporaryDirectory() as workdir:
        print("[smoke] control: uninterrupted training job ...")
        control_sup = _supervisor(workdir, "control")
        with control_sup:
            record = control_sup.submit("m", "doppelganger", data_bytes,
                                        train=TRAIN)
            control = _wait_terminal(control_sup, record.job_id)
        if control.state != "completed":
            raise SystemExit(f"[smoke] FAIL: control job ended "
                             f"{control.state}: {control.error}")
        control_sha = control.result["sha256"]
        print(f"[smoke] control published {control.result['spec']} "
              f"sha {control_sha[:16]}...")

        print("[smoke] CLI: train with the control's options ...")
        data_path = os.path.join(workdir, "data.npz")
        with open(data_path, "wb") as handle:
            handle.write(data_bytes)
        cli_out = os.path.join(workdir, "cli_model.npz")
        flags = [f"--{key.replace('_', '-')}={value}"
                 for key, value in TRAIN.items()]
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", "--data",
             data_path, "--out", cli_out, *flags, "--checkpoint",
             os.path.join(workdir, "cli_checkpoint.npz")],
            check=True, stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": os.path.abspath(SRC)})
        with open(cli_out, "rb") as handle:
            cli_sha = hashlib.sha256(handle.read()).hexdigest()
        if cli_sha != control_sha:
            raise SystemExit(
                "[smoke] FAIL: the CLI and the job trained different "
                f"bytes\n  job: {control_sha}\n  cli: {cli_sha}")
        print("[smoke] CLI model is byte-identical to the job's")

        print("[smoke] victim: SIGKILL the worker mid-training ...")
        victim_sup = _supervisor(workdir, "victim")
        with victim_sup:
            record = victim_sup.submit("m", "doppelganger", data_bytes,
                                       train=TRAIN)
            deadline = time.monotonic() + 60.0
            pid = None
            while time.monotonic() < deadline and pid is None:
                with victim_sup._lock:
                    proc = victim_sup._procs.get(record.job_id)
                    if proc is not None and proc.poll() is None:
                        pid = proc.pid
                time.sleep(0.01)
            if pid is None:
                raise SystemExit("[smoke] FAIL: worker never started")
            # Kill the instant the first checkpoint lands, so the kill
            # reliably interrupts training (not the publish tail).
            checkpoint = victim_sup.store.checkpoint_path(record.job_id)
            deadline = time.monotonic() + 60.0
            while (time.monotonic() < deadline
                   and not os.path.exists(checkpoint)):
                time.sleep(0.005)
            killed = False
            try:
                os.kill(pid, signal.SIGKILL)
                killed = True
                print(f"[smoke] killed worker pid {pid}")
            except ProcessLookupError:
                print("[smoke] worker finished before the kill; "
                      "treating as control-equivalent")
            victim = _wait_terminal(victim_sup, record.job_id)

        if victim.state != "completed":
            raise SystemExit(f"[smoke] FAIL: killed job ended "
                             f"{victim.state}: {victim.error}")
        print(f"[smoke] victim completed after {victim.attempts} "
              f"attempt(s), sha {victim.result['sha256'][:16]}...")
        if killed and victim.attempts < 2:
            raise SystemExit("[smoke] FAIL: worker was killed but the "
                             "job shows no resume attempt")
        if victim.result["sha256"] != control_sha:
            raise SystemExit(
                "[smoke] FAIL: resumed job published different bytes\n"
                f"  control: {control_sha}\n"
                f"  victim:  {victim.result['sha256']}")
        registry = ModelRegistry(os.path.join(workdir,
                                              "registry-victim"))
        if registry.resolve("m@1").sha256 != control_sha:
            raise SystemExit("[smoke] FAIL: registry record sha "
                             "disagrees with the receipt")

    print("[smoke] OK: auto-resumed job published byte-identical model")
    return 0


if __name__ == "__main__":
    sys.exit(main())
