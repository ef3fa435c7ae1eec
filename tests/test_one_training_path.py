"""Guards that keep training to one path.

:func:`repro.backends.train_model` is the only place where training
options become a fitted model: the CLI ``train`` command and the job
worker call it and build no ``DGConfig`` themselves.  ``run_sweep`` has
one execution path (cells, run inline at ``workers=1``), and
``DoppelGANger.fit`` has one checkpoint parameter.
"""

import ast
import inspect
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _text(relative: str) -> str:
    return (SRC / relative).read_text(encoding="utf-8")


def test_cli_and_worker_build_no_config():
    for relative in ("cli.py", "serve/worker.py"):
        text = _text(relative)
        assert "DGConfig(" not in text, relative
        assert "train_model(" in text, relative


def test_deleted_training_copies_stay_deleted():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("_train_other_backend", "_train_doppelganger",
                     "_train_generic"):
            assert name not in text, f"{name} in {path.name}"


def test_run_sweep_has_one_execution_path():
    from repro.experiments.harness import run_sweep

    tree = ast.parse(inspect.getsource(run_sweep).lstrip())
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)]
    assert calls.count("_run_sweep_cells") == 2  # plain + telemetry-wrapped
    assert "get_model" not in calls


def test_fit_has_one_checkpoint_parameter():
    from repro.core.doppelganger import DoppelGANger

    params = inspect.signature(DoppelGANger.fit).parameters
    assert "checkpoint_path" not in params
    assert "train_state_path" in params
    assert "keep_best_by" in params
