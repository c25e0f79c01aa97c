"""Tests for metrics, the evaluation harness, projections and reporting."""

import numpy as np
import pytest

from repro.core import AdaMELBase
from repro.eval import (
    accuracy,
    average_precision,
    best_f1,
    classification_report,
    compare_models,
    confusion_counts,
    domain_alignment_score,
    evaluate_model,
    format_results_table,
    format_series,
    format_table,
    pca_project,
    pr_auc,
    precision_recall_curve,
    precision_recall_f1,
    tsne_project,
)


class TestMetrics:
    def test_perfect_ranking_prauc_one(self):
        labels = [0, 0, 1, 1]
        scores = [0.1, 0.2, 0.8, 0.9]
        assert pr_auc(labels, scores) == pytest.approx(1.0)

    def test_inverted_ranking_low_prauc(self):
        labels = [1, 1, 0, 0]
        scores = [0.1, 0.2, 0.8, 0.9]
        assert pr_auc(labels, scores) < 0.6

    def test_random_scores_near_positive_rate(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=2000)
        scores = rng.random(2000)
        assert pr_auc(labels, scores) == pytest.approx(labels.mean(), abs=0.05)

    def test_prauc_matches_manual_average_precision(self):
        labels = np.array([1, 0, 1, 0, 1])
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        # AP = sum over positive ranks of precision@k / num_positives
        expected = (1 / 1 + 2 / 3 + 3 / 5) / 3
        assert average_precision(labels, scores) == pytest.approx(expected)

    def test_no_positives_gives_zero(self):
        assert pr_auc([0, 0, 0], [0.2, 0.3, 0.4]) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pr_auc([], [])
        with pytest.raises(ValueError):
            pr_auc([0, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            pr_auc([0, 1], [0.5])

    def test_precision_recall_curve_monotone_recall(self):
        labels = [1, 0, 1, 1, 0, 1]
        scores = [0.9, 0.8, 0.7, 0.4, 0.3, 0.1]
        precision, recall, thresholds = precision_recall_curve(labels, scores)
        assert recall[0] == 0.0
        assert np.all(np.diff(recall) >= 0)
        assert len(precision) == len(recall) == len(thresholds) + 1

    def test_confusion_counts(self):
        counts = confusion_counts([1, 1, 0, 0], [1, 0, 1, 0])
        assert counts == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}

    def test_precision_recall_f1(self):
        precision, recall, f1 = precision_recall_f1([1, 1, 0, 0], [1, 0, 0, 0])
        assert precision == 1.0
        assert recall == 0.5
        assert f1 == pytest.approx(2 / 3)

    def test_best_f1_at_least_threshold_f1(self):
        labels = [1, 0, 1, 0, 1]
        scores = [0.6, 0.55, 0.5, 0.4, 0.35]
        best, threshold = best_f1(labels, scores)
        predictions = [int(score >= 0.5) for score in scores]
        assert best >= precision_recall_f1(labels, predictions)[2]
        assert 0 <= threshold <= 1

    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_classification_report_fields(self):
        report = classification_report([1, 0, 1, 0], [0.9, 0.2, 0.7, 0.4])
        as_dict = report.as_dict()
        assert as_dict["pr_auc"] == pytest.approx(1.0)
        assert as_dict["num_pairs"] == 4
        assert as_dict["positive_rate"] == pytest.approx(0.5)


class TestEvaluationHarness:
    def test_evaluate_model(self, music_scenario, fast_config):
        result = evaluate_model(AdaMELBase(fast_config), music_scenario)
        assert 0.0 <= result.pr_auc <= 1.0
        assert result.fit_seconds > 0
        assert result.scenario_name == music_scenario.name

    def test_compare_models_trains_each_factory(self, music_scenario, fast_config):
        results = compare_models({
            "a": lambda: AdaMELBase(fast_config),
            "b": lambda: AdaMELBase(fast_config.with_updates(seed=1)),
        }, music_scenario)
        assert set(results) == {"a", "b"}
        assert all(0.0 <= r.pr_auc <= 1.0 for r in results.values())


class TestProjection:
    def test_pca_shape_and_centering(self):
        points = np.random.default_rng(0).random((30, 6))
        projected = pca_project(points, dim=2)
        assert projected.shape == (30, 2)
        assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-9)

    def test_pca_invalid_dim(self):
        with pytest.raises(ValueError):
            pca_project(np.random.rand(10, 3), dim=5)

    def test_tsne_shape(self):
        points = np.random.default_rng(0).random((25, 8))
        embedded = tsne_project(points, dim=2, iterations=50, seed=1)
        assert embedded.shape == (25, 2)
        assert np.all(np.isfinite(embedded))

    def test_tsne_too_few_points(self):
        with pytest.raises(ValueError):
            tsne_project(np.random.rand(3, 4))

    def test_alignment_score_separated_vs_mixed(self):
        rng = np.random.default_rng(0)
        separated_source = rng.normal(0, 0.1, size=(40, 2))
        separated_target = rng.normal(5, 0.1, size=(40, 2)) + 5
        mixed_source = rng.normal(0, 1.0, size=(40, 2))
        mixed_target = rng.normal(0, 1.0, size=(40, 2))
        low = domain_alignment_score(separated_source, separated_target)
        high = domain_alignment_score(mixed_source, mixed_target)
        assert low < 0.2
        assert high > 0.7

    def test_alignment_score_requires_points(self):
        with pytest.raises(ValueError):
            domain_alignment_score(np.zeros((0, 2)), np.ones((3, 2)))


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 0.5], ["bb", 1.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.5000" in text and "1.2500" in text

    def test_format_results_table(self):
        text = format_results_table({"m1": {"pr_auc": 0.9}, "m2": {"pr_auc": 0.8}},
                                    metric_order=["pr_auc"])
        assert "m1" in text and "0.9000" in text

    def test_format_series(self):
        text = format_series("x", [1, 2], {"series_a": [0.1, 0.2], "series_b": [0.3, 0.4]})
        assert "series_a" in text and "0.4000" in text
