"""``train_model``: the one path from training options to a model."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.backends import TrainOptionError, train_model
from repro.cli import main
from repro.data.simulators import generate_gcut
from repro.serve.jobs import JobStore
from repro.serve.worker import run_job

OPTIONS = {"iterations": 4, "batch_size": 8, "hidden": 8, "seed": 3}


@pytest.fixture(scope="module")
def dataset():
    return generate_gcut(30, np.random.default_rng(0), max_length=12)


@pytest.mark.parametrize("backend", ["doppelganger", "hmm"])
def test_cli_and_job_write_identical_model_bytes(tmp_path, dataset,
                                                 backend):
    data_path = tmp_path / "d.npz"
    dataset.save(data_path)
    cli_out = tmp_path / "cli.npz"
    assert main(["train", "--data", str(data_path), "--out", str(cli_out),
                 "--backend", backend, "--iterations", "4",
                 "--batch-size", "8", "--hidden", "8", "--seed", "3"]) == 0

    store = JobStore(tmp_path / "jobs")
    buffer = io.BytesIO()
    dataset.save(buffer)
    record = store.create("m", backend, buffer.getvalue(), train=OPTIONS)
    assert run_job(store.job_dir(record.job_id),
                   str(tmp_path / "registry")) == 0
    with open(store.model_path(record.job_id), "rb") as handle:
        assert handle.read() == cli_out.read_bytes()


@pytest.mark.parametrize("key,value", [
    ("sentinel", True), ("sample_len", 4), ("checkpoint_every", 5),
    ("max_retries", 2)])
def test_doppelganger_only_options_refused_for_other_backends(dataset, key,
                                                              value):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(TrainOptionError, match=f"^{flag} is only"):
        train_model("hmm", dataset, {**OPTIONS, key: value})


@pytest.mark.parametrize("kwargs,flag", [
    ({"checkpoint": "ckpt.npz"}, "--checkpoint"),
    ({"resume": True}, "--resume")])
def test_checkpoint_and_resume_refused_for_other_backends(dataset, kwargs,
                                                          flag):
    with pytest.raises(TrainOptionError, match=f"^{flag} is only"):
        train_model("ar", dataset, OPTIONS, **kwargs)


def test_unknown_and_mistyped_options_are_refused(dataset):
    with pytest.raises(TrainOptionError, match="unknown training option"):
        train_model("doppelganger", dataset, {"learning_rate": 0.1})
    with pytest.raises(TrainOptionError, match="'hidden' must be an"):
        train_model("doppelganger", dataset, {"hidden": "wide"})


def test_resume_requires_checkpoint(dataset):
    with pytest.raises(TrainOptionError, match="--resume requires"):
        train_model("doppelganger", dataset, OPTIONS, resume=True)


class TestCli:
    def test_refusal_is_a_one_line_error(self, tmp_path, dataset, capsys):
        data_path = tmp_path / "d.npz"
        dataset.save(data_path)
        rc = main(["train", "--data", str(data_path), "--out",
                   str(tmp_path / "m.npz"), "--backend", "hmm",
                   "--sentinel"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --sentinel is only supported by the doppelganger "
            "backend\n")

    def test_out_is_the_exact_path(self, tmp_path, dataset):
        """No ``.npz`` is appended: the file lands where --out says."""
        data_path = tmp_path / "d.npz"
        dataset.save(data_path)
        out = tmp_path / "model"
        assert main(["train", "--data", str(data_path), "--out", str(out),
                     "--iterations", "2", "--batch-size", "8",
                     "--hidden", "8"]) == 0
        assert out.exists()
        assert not (tmp_path / "model.npz").exists()
