"""Tests for the model card an experiment ships and the sweep failure
summary renderer.

The model card is ``repro.quality.QualityReport``; the classes below keep
the card's original contract (fidelity of a copy, memorization and
collapse checks, schema checks, markdown sections) on that one type.
"""

import numpy as np
import pytest

from repro.quality import QualityReport


class TestFidelityReport:
    def test_perfect_copy_scores_well(self, tiny_gcut):
        half = len(tiny_gcut) // 2
        train, holdout = tiny_gcut[np.arange(half)], \
            tiny_gcut[np.arange(half, len(tiny_gcut))]
        scores = QualityReport(train, train, holdout=holdout,
                               downstream=False).property_scores()
        for name in ("autocorrelation", "lengths", "attribute_marginals"):
            assert scores[name] == pytest.approx(1.0), name
        # Copying IS memorization: the check must score it near zero.
        assert scores["memorization"] < 1e-6

    def test_independent_real_data_not_flagged(self, tiny_gcut):
        from repro.data.simulators import generate_gcut
        other = generate_gcut(len(tiny_gcut), np.random.default_rng(55),
                              max_length=tiny_gcut.schema.max_length)
        half = len(tiny_gcut) // 2
        train = tiny_gcut[np.arange(half)]
        holdout = tiny_gcut[np.arange(half, len(tiny_gcut))]
        scores = QualityReport(train, other, holdout=holdout,
                               downstream=False).property_scores()
        assert scores["memorization"] > 0.5
        assert scores["diversity"] > 0.5

    def test_schema_mismatch_rejected(self, tiny_wwt, tiny_gcut):
        with pytest.raises(ValueError, match="schemas differ"):
            QualityReport(tiny_wwt, tiny_gcut)


class TestRenderMarkdown:
    def test_contains_sections(self, tiny_gcut):
        half = len(tiny_gcut) // 2
        report = QualityReport(tiny_gcut[np.arange(half)],
                               tiny_gcut[np.arange(half, len(tiny_gcut))],
                               holdout=tiny_gcut[np.arange(half)],
                               downstream=False)
        text = report.render_markdown(title="GCUT card")
        assert "# GCUT card" in text
        assert "## autocorrelation" in text
        assert "## attribute_marginals" in text
        assert "## memorization" in text

    def test_handles_empty_report(self):
        text = QualityReport.from_dict({"seed": 0}).render_markdown()
        assert "Quality report" in text


class TestCrossCorrelationSection:
    def test_included_for_multifeature_data(self, tiny_gcut):
        report = QualityReport(tiny_gcut, tiny_gcut, downstream=False)
        assert report.property_scores()["cross_correlation"] == 1.0
        assert "## cross_correlation" in report.render_markdown()

    def test_absent_for_single_feature(self, tiny_wwt):
        report = QualityReport(tiny_wwt, tiny_wwt, downstream=False)
        assert "cross_correlation" not in report.property_scores()


class TestFailureSummary:
    def test_renders_failures_as_table(self):
        from repro.experiments.report import failure_summary
        from repro.resilience import FailureRecord
        failures = [FailureRecord(dataset="wwt", model="dg",
                                  exception_type="TrainingDiverged",
                                  message="retry budget exhausted",
                                  iteration=123, retries=3)]
        text = failure_summary(failures)
        assert "| wwt | dg | TrainingDiverged | 123 | 3 |" in text
        assert "1 of the sweep's models failed" in text

    def test_empty_failures_render_empty(self):
        from repro.experiments.report import failure_summary
        assert failure_summary([]) == ""

    def test_long_messages_truncated(self):
        from repro.experiments.report import failure_summary
        from repro.resilience import FailureRecord
        record = FailureRecord(dataset="d", model="m",
                               exception_type="E", message="x" * 200)
        assert "x" * 200 not in failure_summary([record])
