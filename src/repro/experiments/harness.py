"""Shared benchmark harness.

Training a GAN is expensive relative to the metrics computed on it, and many
figures evaluate the *same* trained models, so this module memoises datasets
and trained models per (dataset, model) key within the process.  The caches
are LRU-bounded (:func:`configure_cache`) so long sweeps cannot grow memory
without limit.  Benchmarks print the same rows/series the paper reports via
:func:`print_table`.

Failure isolation: a model that diverges or raises during ``fit`` is turned
into a structured :class:`~repro.resilience.failures.FailureRecord` (see
:func:`run_sweep` / :func:`get_failures`), so one bad model cannot abort a
multi-model comparison.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.configs import BENCH, BenchScale, make_dataset
from repro.lru import LRUCache
from repro.nn import profiler as nn_profiler
from repro.resilience.failures import FailureRecord
from repro.resilience.faults import SimulatedKill

__all__ = ["MODEL_NAMES", "get_dataset", "get_model", "get_split",
           "print_table", "print_series", "clear_cache", "configure_cache",
           "get_failures", "run_sweep", "SweepResult", "LRUCache"]

# Paper display names, in the order figures list them; ``dg`` is the
# historical short name (an alias of the ``doppelganger`` backend).
MODEL_NAMES = {
    "dg": "DoppelGANger",
    "doppelganger": "DoppelGANger",
    "dlgan": "DLGAN",
    "ar": "AR",
    "rnn": "RNN",
    "hmm": "HMM",
    "naive_gan": "Naive GAN",
}


_DATASETS = LRUCache(8)
_MODELS = LRUCache(16)
_SPLITS = LRUCache(8)
_FAILURES: list[FailureRecord] = []


def clear_cache() -> None:
    """Drop all memoised datasets/models and failure records."""
    _DATASETS.clear()
    _MODELS.clear()
    _SPLITS.clear()
    _FAILURES.clear()


def configure_cache(max_datasets: int | None = None,
                    max_models: int | None = None,
                    max_splits: int | None = None) -> None:
    """Re-bound the harness caches (evicting immediately if shrinking)."""
    if max_datasets is not None:
        _DATASETS.set_maxsize(max_datasets)
    if max_models is not None:
        _MODELS.set_maxsize(max_models)
    if max_splits is not None:
        _SPLITS.set_maxsize(max_splits)


def get_failures() -> list[FailureRecord]:
    """Failure records accumulated by :func:`get_model` this process."""
    return list(_FAILURES)


def get_dataset(name: str, scale: BenchScale = BENCH):
    key = (name, scale)
    if key not in _DATASETS:
        _DATASETS[key] = make_dataset(name, scale)
    return _DATASETS[key]


def get_split(dataset_name: str, model_name: str, scale: BenchScale = BENCH):
    """Figure-10 split with synthetic halves from the named model."""
    from repro.data.splits import make_split, synthesize_split

    key = (dataset_name, model_name, scale)
    if key not in _SPLITS:
        rng = np.random.default_rng(scale.seed + 1)
        split = make_split(get_dataset(dataset_name, scale), rng)
        model = get_model(dataset_name, model_name, scale,
                          train_data=split.train_real)
        _SPLITS[key] = synthesize_split(
            split, model, rng=np.random.default_rng(scale.seed + 2))
    return _SPLITS[key]


def get_model(dataset_name: str, model_name: str, scale: BenchScale = BENCH,
              train_data=None, cache_tag: str = "", seed: int | None = None,
              **config_overrides):
    """Train (or fetch the cached) model for a dataset.

    ``model_name`` is any registered backend name or alias (``dg`` is
    an alias of ``doppelganger``); the cache key uses the canonical
    backend name so aliases share one entry.  ``config_overrides`` that
    do not apply to the chosen architecture are ignored by its backend;
    give ablation variants a distinct ``cache_tag``.  ``seed`` overrides
    the scale's training seed for any model type (used by multi-seed
    sweeps).  A custom ``train_data`` is keyed by its content
    fingerprint, so two equal datasets share a cache entry regardless of
    object identity.
    """
    from repro.backends import get_backend
    from repro.parallel.cache import dataset_fingerprint

    backend = get_backend(model_name)
    key = (dataset_name, backend.name, scale, cache_tag, seed,
           tuple(sorted(config_overrides.items())),
           dataset_fingerprint(train_data) if train_data is not None
           else None)
    if key in _MODELS:
        return _MODELS[key]
    data = train_data if train_data is not None else get_dataset(
        dataset_name, scale)
    model = backend.from_config(data.schema, backend.make_config(
        dataset_name, scale, seed=seed, **config_overrides))
    # monotonic: wall-clock adjustments must not produce negative elapsed
    # (matches serve/batcher.py timing).
    started = time.monotonic()
    try:
        # REPRO_PROFILE=1 prints the op-level hot list of every run.
        if os.environ.get("REPRO_PROFILE"):
            with nn_profiler.profile() as prof:
                model.fit(data)
            print(f"[harness] op profile for {model_name} on "
                  f"{dataset_name}:\n{prof.summary(top=12)}",
                  file=sys.stderr)
        else:
            model.fit(data)
    except SimulatedKill:
        raise
    except Exception as exc:
        record = FailureRecord.from_exception(
            dataset_name, model_name, exc, model=model,
            elapsed=time.monotonic() - started)
        _FAILURES.append(record)
        print(f"[harness] FAILED {MODEL_NAMES.get(model_name, model_name)} "
              f"on {dataset_name}: {record.exception_type}: "
              f"{record.message}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - started
    print(f"[harness] trained {MODEL_NAMES.get(model_name, model_name)} "
          f"on {dataset_name}{' (' + cache_tag + ')' if cache_tag else ''} "
          f"in {elapsed:.1f}s", file=sys.stderr)
    _MODELS[key] = model
    return model


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`: models, isolated failures, timings.

    ``models`` maps ``(dataset, model)`` -- or ``(dataset, model, seed)``
    for multi-seed sweeps -- to the trained model; ``timings`` maps the
    same keys to :class:`~repro.parallel.sweep.CellTiming` records
    measured where each cell ran (worker or parent process).
    ``quality`` (filled when ``run_sweep(quality=...)``) maps the same
    keys to :class:`~repro.quality.QualityReport` instances computed in
    the parent process -- so they are identical at any worker count.
    """

    models: dict = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    @property
    def failed_keys(self) -> list[tuple[str, str]]:
        return [(f.dataset, f.model) for f in self.failures]


def _run_sweep_cells(cells, scale, config_overrides: dict, workers: int,
                     cache_dir, telemetry=None) -> SweepResult:
    """Execute built cells through the parallel layer into a SweepResult.

    A cell that ran inline already has its failure in :data:`_FAILURES`
    (:func:`get_model` recorded it), so each failure is recorded once.
    """
    from repro.parallel.sweep import run_cells

    result = SweepResult()
    outcomes = run_cells(cells, scale, config_overrides, workers=workers,
                         cache_dir=cache_dir, telemetry=telemetry)
    for outcome in outcomes:
        result.timings[outcome.label] = outcome.timing
        if outcome.failure is None:
            result.models[outcome.label] = outcome.model
            continue
        result.failures.append(outcome.failure)
        if not any(record is outcome.failure for record in _FAILURES):
            _FAILURES.append(outcome.failure)
    return result


def _score_sweep(result: SweepResult, scale: BenchScale,
                 quality) -> None:
    """Fill ``result.quality`` with one QualityReport per trained cell.

    Runs in the parent process *after* the models come back, generating
    from a fresh seeded rng per cell -- since the trained models are
    bit-identical at any worker count, so are the reports.  ``quality``
    is ``True`` for defaults or a dict of :class:`QualityReport` kwargs
    plus ``n`` (objects generated per cell) and ``seed``; the expensive
    ``downstream`` section defaults to off in sweeps.
    """
    from repro.quality import QualityReport

    kwargs = dict(quality) if isinstance(quality, dict) else {}
    n = int(kwargs.pop("n", 64))
    seed = int(kwargs.pop("seed", scale.seed))
    kwargs.setdefault("downstream", False)
    for key in sorted(result.models, key=str):
        dataset_name = key[0] if isinstance(key, tuple) else str(key)
        real = get_dataset(dataset_name, scale)
        synthetic = result.models[key].generate(
            n, rng=np.random.default_rng(seed))
        result.quality[key] = QualityReport(real, synthetic, seed=seed,
                                            **kwargs)


def run_sweep(dataset_names, model_names, scale: BenchScale = BENCH,
              isolate: bool = True, verbose: bool = True, workers: int = 1,
              seeds=None, cache_dir=None, telemetry=None, quality=False,
              **config_overrides) -> SweepResult:
    """Train every (dataset, model[, seed]) cell, isolating failures.

    Every sweep is one path: :func:`~repro.parallel.sweep.build_cells`,
    then :func:`~repro.parallel.sweep.run_cells` (inline at
    ``workers=1``), then optional quality scoring, then the failure
    table; ``telemetry`` only wraps it.  With ``isolate=True`` (the
    default) a model whose ``fit`` raises is recorded once as a
    :class:`FailureRecord` and the remaining cells still train; the
    failures are printed as a summary table at the end instead of
    aborting with a traceback.  With ``isolate=False``, once the cells
    have run, a :class:`RuntimeError` names the first failed cell, at
    every worker count.

    Args:
        workers: Worker subprocesses to farm cells to.  ``workers=1`` runs
            every cell inline in this process (sharing its model and
            dataset caches); any worker count produces bit-identical
            models (see docs/architecture.md, "Parallel execution").
        seeds: ``None`` for one cell per pair at the scale's seed; an int
            ``k`` for k replicas with decorrelated spawned seeds; or an
            explicit list of training seeds.  Multi-seed cells are keyed
            ``(dataset, model, replica-or-seed)`` in the result.
        cache_dir: Optional directory for the on-disk result cache keyed
            by (config hash, dataset fingerprint, seed); cached cells are
            skipped and marked ``cached`` in the timing table.
        quality: ``True`` (or a dict of :class:`~repro.quality.
            QualityReport` kwargs plus ``n``/``seed``) to score every
            trained cell with a quality report, computed in the parent
            so it is worker-count invariant; sweep reports then rank
            cells by overall score (see render_sweep_report).
        telemetry: Optional directory for a telemetry run.  Workers write
            per-cell event/metric files and the parent merges them into
            ``events.jsonl`` / ``metrics.json`` / ``report.md`` -- all
            deterministic and worker-count invariant (see
            docs/observability.md).  Cells already memoised in this
            process's harness cache skip training (and its events), so
            start from a fresh process or :func:`clear_cache` for
            byte-comparable logs.
    """
    from repro.parallel.sweep import build_cells, cell_id

    cells = build_cells(dataset_names, model_names, seeds, scale.seed)
    if telemetry is None:
        result = _run_sweep_cells(cells, scale, config_overrides, workers,
                                  cache_dir)
    else:
        from repro.observability import TelemetryRun, emit

        with TelemetryRun(telemetry, run_id="sweep") as run:
            emit("sweep.start", {
                "datasets": list(dataset_names),
                "models": list(model_names),
                "seeds": None if seeds is None
                else int(seeds) if isinstance(seeds, (int, np.integer))
                else [int(s) for s in seeds],
                "cached": cache_dir is not None,
            }, volatile={"workers": workers})
            result = _run_sweep_cells(
                cells, scale, config_overrides, workers, cache_dir,
                telemetry=(run.root, run.run_id))
            emit("sweep.finish", {"trained": len(result.models),
                                  "failed": len(result.failures)})
        run.finalize(cell_labels=[c.label for c in cells])
    if not isolate and result.failures:
        first = result.failures[0]
        failed = next(label for label, timing in result.timings.items()
                      if timing.failed)
        raise RuntimeError(f"sweep cell {cell_id(failed)} failed: "
                           f"{first.exception_type}: {first.message}")
    if quality:
        _score_sweep(result, scale, quality)
    if verbose and result.failures:
        print_table(
            "Sweep failures",
            ["dataset", "model", "exception", "iteration", "retries",
             "message"],
            [f.row() for f in result.failures])
    return result


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned table mirroring one of the paper's tables."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def print_series(title: str, x_label: str, x_values, series: dict) -> None:
    """Print figure-style series: one column of x, one per curve."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in series])
    print_table(title, headers, rows)
