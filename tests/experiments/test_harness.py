"""Tests for the benchmark harness (caching, table printers)."""

import numpy as np
import pytest

from repro.experiments import (BenchScale, clear_cache, get_dataset,
                               get_model, print_series, print_table)

TINY = BenchScale(n_samples=30, gcut_length=8, dg_iterations=4,
                  baseline_iterations=4, hidden_width=12, rnn_units=8,
                  batch_size=8)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCaching:
    def test_dataset_cached(self):
        a = get_dataset("gcut", TINY)
        b = get_dataset("gcut", TINY)
        assert a is b

    def test_model_cached_by_key(self):
        a = get_model("gcut", "hmm", TINY)
        b = get_model("gcut", "hmm", TINY)
        assert a is b

    def test_variants_are_distinct(self):
        a = get_model("gcut", "dg", TINY)
        b = get_model("gcut", "dg", TINY, cache_tag="variant",
                      use_auxiliary_discriminator=False)
        assert a is not b
        assert b.aux_discriminator is None

    def test_trained_model_generates(self):
        model = get_model("gcut", "dg", TINY)
        syn = model.generate(5, rng=np.random.default_rng(0))
        assert len(syn) == 5


class TestPrinters:
    def test_print_table_alignment(self, capsys):
        print_table("My Table", ["name", "value"],
                    [["alpha", 0.123456], ["b", 42]])
        out = capsys.readouterr().out
        assert "My Table" in out
        assert "0.123" in out
        assert "42" in out

    def test_print_series(self, capsys):
        print_series("Curve", "x", [1, 2], {"y": [0.1, 0.2]})
        out = capsys.readouterr().out
        assert "Curve" in out
        assert "0.200" in out

    def test_print_table_empty_rows(self, capsys):
        print_table("Empty", ["a"], [])
        assert "Empty" in capsys.readouterr().out


class TestGetSplit:
    def test_split_has_all_four_quadrants(self):
        from repro.experiments import get_split
        split = get_split("gcut", "hmm", TINY)
        assert len(split.train_real) == len(split.train_synthetic)
        assert len(split.test_real) == len(split.test_synthetic)

    def test_split_cached(self):
        from repro.experiments import get_split
        a = get_split("gcut", "hmm", TINY)
        b = get_split("gcut", "hmm", TINY)
        assert a is b

    def test_model_trained_on_train_half_only(self):
        """The generative model inside a split must be fitted on A, not on
        the full dataset (the Figure-10 protocol)."""
        from repro.experiments import get_dataset, get_model, get_split
        split = get_split("gcut", "hmm", TINY)
        model = get_model("gcut", "hmm", TINY,
                          train_data=split.train_real)
        # The HMM's attribute sampler stores its training rows verbatim.
        assert len(model.attribute_sampler._rows) == len(split.train_real)


class TestLRUCache:
    def test_eviction_order(self):
        from repro.experiments.harness import LRUCache
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        _ = cache["a"]          # refresh "a"; "b" is now coldest
        cache["c"] = 3
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_set_maxsize_evicts(self):
        from repro.experiments.harness import LRUCache
        cache = LRUCache(4)
        for i in range(4):
            cache[i] = i
        cache.set_maxsize(2)
        assert len(cache) == 2 and 3 in cache and 0 not in cache

    def test_invalid_maxsize(self):
        from repro.experiments.harness import LRUCache
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_model_cache_bounded(self):
        """Long sweeps cannot grow the model cache without limit."""
        from repro.experiments import configure_cache, get_model
        from repro.experiments.harness import _MODELS
        configure_cache(max_models=2)
        try:
            get_model("gcut", "hmm", TINY)
            get_model("gcut", "ar", TINY)
            get_model("gcut", "naive_gan", TINY)
            assert len(_MODELS) == 2
            # Oldest (hmm) evicted: a re-request retrains a new object.
            survivors = {key[1] for key in _MODELS.keys()}
            assert survivors == {"ar", "naive_gan"}
        finally:
            configure_cache(max_models=16)


class TestSweepIsolation:
    def test_one_failing_model_does_not_abort_sweep(self, monkeypatch,
                                                    capsys):
        """Acceptance criterion: a sweep where one model raises finishes
        the remaining models and reports the failure in a summary table."""
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments import get_failures, run_sweep

        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        result = run_sweep(["gcut"], ["hmm", "ar", "naive_gan"], TINY)
        assert set(result.models) == {("gcut", "ar"),
                                      ("gcut", "naive_gan")}
        assert result.failed_keys == [("gcut", "hmm")]
        record = result.failures[0]
        assert record.exception_type == "RuntimeError"
        assert record.message == "boom"
        assert get_failures()[-1] is record
        out = capsys.readouterr().out
        assert "Sweep failures" in out and "RuntimeError" in out

    def test_isolate_false_restores_fail_fast(self, monkeypatch):
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments import run_sweep

        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(["gcut"], ["hmm"], TINY, isolate=False)

    @pytest.mark.parametrize("seeds", [None, [5]])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_failed_cell_is_recorded_once(self, monkeypatch, workers,
                                               seeds):
        """Inline or in a worker, one failing cell is one record."""
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments import clear_cache, get_failures, run_sweep

        clear_cache()
        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        result = run_sweep(["gcut"], ["hmm", "ar"], TINY, workers=workers,
                           seeds=seeds, verbose=False)
        assert len(result.failures) == 1
        assert len(get_failures()) == 1
        assert get_failures()[0] is result.failures[0]

    def test_isolate_false_raises_after_every_cell_ran(self, monkeypatch):
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments import clear_cache, get_failures, run_sweep
        from repro.experiments.harness import _MODELS

        clear_cache()
        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="gcut/hmm failed"):
            run_sweep(["gcut"], ["hmm", "ar"], TINY, isolate=False,
                      verbose=False)
        assert len(get_failures()) == 1
        assert [key[1] for key in _MODELS.keys()] == ["ar"]

    def test_training_diverged_carries_iteration_and_retries(self,
                                                             monkeypatch):
        """A diverging DoppelGANger surfaces its partial history in the
        failure record."""
        from repro.experiments import run_sweep
        from repro.resilience import faults

        monkeypatch.setattr(
            "repro.core.doppelganger.DoppelGANger.fit",
            lambda self, data, **kw: (_ for _ in ()).throw(
                RuntimeError("synthetic divergence")))
        result = run_sweep(["gcut"], ["dg"], TINY)
        assert result.failures[0].model == "dg"
        assert result.failures[0].exception_type == "RuntimeError"

    def test_clear_cache_drops_failures(self, monkeypatch):
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments import clear_cache, get_failures, run_sweep

        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        run_sweep(["gcut"], ["hmm"], TINY)
        assert get_failures()
        clear_cache()
        assert get_failures() == []


class TestElapsedTiming:
    def test_failure_elapsed_non_negative_under_clock_step(self,
                                                           monkeypatch):
        """Harness timing uses the monotonic clock: an NTP-style wall
        clock step backwards mid-training must not record a negative
        elapsed time in the failure record."""
        import itertools
        import time
        import types
        from unittest import mock

        import repro.experiments.harness as harness
        from repro.baselines import HMMBaseline
        from repro.experiments import get_failures

        ticks = itertools.count(100.0, 0.5)         # well-behaved
        wall = itertools.count(5000.0, -60.0)       # steps backwards
        fake = types.SimpleNamespace(
            monotonic=lambda: next(ticks),
            time=lambda: next(wall),
            sleep=time.sleep, perf_counter=time.perf_counter)
        monkeypatch.setattr(harness, "time", fake)
        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            get_model("gcut", "hmm", TINY, cache_tag="clockstep")
        record = get_failures()[-1]
        assert record.elapsed >= 0, (
            f"elapsed went negative ({record.elapsed}); harness timing "
            f"must not depend on the wall clock")
