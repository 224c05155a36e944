"""Tests for the evaluation metrics (point-adjust P/R/F1, R-AUC-PR, ADD),
the runner and the bench matrix."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    BENCH_SCHEMA_VERSION,
    EvaluationSummary,
    RunMetrics,
    anomaly_segments,
    auc_pr,
    average_detection_delay,
    average_summaries,
    detection_delays,
    evaluate_detector,
    evaluate_labels,
    format_results_table,
    point_adjust,
    precision_recall_f1,
    range_auc_pr,
    run_bench_matrix,
    soft_range_labels,
    write_bench_matrix,
)


class TestSegments:
    def test_basic_segments(self):
        labels = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1])
        assert anomaly_segments(labels) == [(1, 3), (5, 6), (7, 10)]

    def test_no_segments(self):
        assert anomaly_segments(np.zeros(5)) == []

    def test_all_anomalous(self):
        assert anomaly_segments(np.ones(4)) == [(0, 4)]

    def test_non_1d_raises(self):
        with pytest.raises(ValueError):
            anomaly_segments(np.zeros((2, 2)))


class TestPointAdjust:
    def test_single_hit_fills_segment(self):
        actual = np.array([0, 1, 1, 1, 0])
        predicted = np.array([0, 0, 1, 0, 0])
        adjusted = point_adjust(predicted, actual)
        np.testing.assert_array_equal(adjusted, [0, 1, 1, 1, 0])

    def test_missed_segment_unchanged(self):
        actual = np.array([0, 1, 1, 0, 1, 1])
        predicted = np.array([0, 0, 0, 0, 1, 0])
        adjusted = point_adjust(predicted, actual)
        np.testing.assert_array_equal(adjusted, [0, 0, 0, 0, 1, 1])

    def test_false_positives_preserved(self):
        actual = np.array([0, 0, 0, 1])
        predicted = np.array([1, 0, 0, 1])
        adjusted = point_adjust(predicted, actual)
        np.testing.assert_array_equal(adjusted, [1, 0, 0, 1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            point_adjust(np.zeros(3), np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_adjustment_never_decreases_recall(self, seed):
        rng = np.random.default_rng(seed)
        actual = (rng.random(100) < 0.2).astype(int)
        predicted = (rng.random(100) < 0.1).astype(int)
        raw = precision_recall_f1(predicted, actual, adjust=False)
        adjusted = precision_recall_f1(predicted, actual, adjust=True)
        assert adjusted.recall >= raw.recall - 1e-12


class TestPrecisionRecallF1:
    def test_perfect_prediction(self):
        actual = np.array([0, 1, 1, 0])
        scores = precision_recall_f1(actual, actual)
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_no_predictions(self):
        actual = np.array([0, 1, 1, 0])
        scores = precision_recall_f1(np.zeros(4, dtype=int), actual)
        assert scores.precision == 0.0 and scores.recall == 0.0 and scores.f1 == 0.0

    def test_known_values_without_adjustment(self):
        actual = np.array([1, 1, 0, 0])
        predicted = np.array([1, 0, 1, 0])
        scores = precision_recall_f1(predicted, actual, adjust=False)
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(0.5)
        assert scores.f1 == pytest.approx(0.5)

    def test_adjustment_improves_recall(self):
        actual = np.array([0, 1, 1, 1, 1, 0])
        predicted = np.array([0, 0, 0, 1, 0, 0])
        raw = precision_recall_f1(predicted, actual, adjust=False)
        adjusted = precision_recall_f1(predicted, actual, adjust=True)
        assert adjusted.recall > raw.recall
        assert adjusted.f1 > raw.f1


class TestRangeAucPr:
    def test_perfect_scores_give_high_auc(self):
        labels = np.zeros(200, dtype=int)
        labels[50:70] = 1
        scores = labels.astype(float) + np.random.default_rng(0).normal(0, 0.01, 200)
        # The buffer regions dilute recall even for a perfect detector, so the
        # ceiling is below 1.0 (this matches the low absolute R-AUC-PR values
        # reported in the paper); without a buffer the score is exactly 1.
        assert range_auc_pr(scores, labels) > 0.7
        assert range_auc_pr(scores, labels, buffer_size=0) == pytest.approx(1.0)

    def test_random_scores_give_low_auc(self):
        rng = np.random.default_rng(1)
        labels = np.zeros(500, dtype=int)
        labels[100:120] = 1
        scores = rng.random(500)
        assert range_auc_pr(scores, labels) < 0.5

    def test_no_anomalies_returns_zero(self):
        assert range_auc_pr(np.random.rand(50), np.zeros(50, dtype=int)) == 0.0

    def test_shifted_detection_rewarded_by_buffer(self):
        labels = np.zeros(300, dtype=int)
        labels[100:130] = 1
        # Detector fires slightly before the event.
        early_scores = np.zeros(300)
        early_scores[95:105] = 1.0
        with_buffer = range_auc_pr(early_scores, labels, buffer_size=10)
        without_buffer = range_auc_pr(early_scores, labels, buffer_size=0)
        assert with_buffer >= without_buffer

    def test_soft_labels_ramp(self):
        labels = np.zeros(20, dtype=int)
        labels[10:12] = 1
        soft = soft_range_labels(labels, buffer_size=2)
        assert soft[10] == 1.0 and soft[11] == 1.0
        assert 0 < soft[9] < 1.0
        assert soft[8] < soft[9]
        assert soft[0] == 0.0

    def test_soft_labels_negative_buffer_raises(self):
        with pytest.raises(ValueError):
            soft_range_labels(np.zeros(5), -1)

    def test_auc_pr_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc_pr(np.zeros(3), np.zeros(4))

    def test_score_ordering_matters_not_scale(self):
        labels = np.zeros(100, dtype=int)
        labels[40:60] = 1
        scores = np.random.default_rng(2).random(100) + labels * 2
        a = range_auc_pr(scores, labels)
        b = range_auc_pr(scores * 1000.0, labels)
        assert a == pytest.approx(b)


class TestDetectionDelay:
    def test_immediate_detection_zero_delay(self):
        actual = np.array([0, 0, 1, 1, 1, 0])
        predicted = np.array([0, 0, 1, 0, 0, 0])
        assert detection_delays(predicted, actual) == [0]

    def test_delayed_detection(self):
        actual = np.array([0, 1, 1, 1, 0, 0])
        predicted = np.array([0, 0, 0, 1, 0, 0])
        assert detection_delays(predicted, actual) == [2]

    def test_missed_event_charged_full_horizon(self):
        actual = np.array([0, 1, 1, 0, 0, 0])
        predicted = np.zeros(6, dtype=int)
        # Horizon runs from the event start to the end of the series (5 steps).
        assert detection_delays(predicted, actual) == [5]

    def test_detection_after_event_counts_with_horizon(self):
        actual = np.array([0, 1, 1, 0, 0, 0, 0])
        predicted = np.array([0, 0, 0, 0, 1, 0, 0])
        assert detection_delays(predicted, actual) == [3]

    def test_max_horizon_caps_delay(self):
        actual = np.array([0, 1, 1, 0, 0, 0, 0, 0])
        predicted = np.zeros(8, dtype=int)
        assert detection_delays(predicted, actual, max_horizon=3) == [3]

    def test_multiple_events(self):
        actual = np.array([1, 1, 0, 0, 1, 1, 1, 0])
        predicted = np.array([0, 1, 0, 0, 0, 0, 1, 0])
        assert detection_delays(predicted, actual) == [1, 2]

    def test_average_no_events(self):
        assert average_detection_delay(np.zeros(5), np.zeros(5)) == 0.0

    def test_average_value(self):
        actual = np.array([1, 1, 0, 1, 1, 0])
        predicted = np.array([0, 1, 0, 1, 0, 0])
        assert average_detection_delay(predicted, actual) == pytest.approx(0.5)


class _ConstantDetector:
    """Flags the top-q fraction of a simple deviation score — used to test the runner."""

    def __init__(self, seed: int = 0, quantile: float = 0.95) -> None:
        self.seed = seed
        self.quantile = quantile
        self._center = None

    def fit(self, train):
        self._center = np.median(train, axis=0)
        return self

    def predict(self, test):
        scores = np.abs(test - self._center).mean(axis=1)
        threshold = np.quantile(scores, self.quantile)
        return (scores >= threshold).astype(int), scores


class TestRunner:
    def _dataset(self):
        from repro.data import load_dataset

        return load_dataset("GCP", seed=0, scale=0.1)

    def test_evaluate_labels_returns_metrics(self):
        actual = np.array([0, 1, 1, 0, 0])
        labels = np.array([0, 1, 0, 0, 0])
        scores = np.array([0.1, 0.9, 0.8, 0.2, 0.1])
        metrics = evaluate_labels(labels, scores, actual)
        assert isinstance(metrics, RunMetrics)
        assert 0 <= metrics.f1 <= 1

    def test_evaluate_detector_multi_run(self):
        dataset = self._dataset()
        summary = evaluate_detector(lambda seed: _ConstantDetector(seed), dataset,
                                    num_runs=2, detector_name="Constant")
        assert summary.detector == "Constant"
        assert summary.dataset == "GCP"
        assert len(summary.runs) == 2
        assert 0 <= summary.f1 <= 1
        assert summary.f1_std >= 0

    def test_evaluate_detector_invalid_runs(self):
        with pytest.raises(ValueError):
            evaluate_detector(lambda seed: _ConstantDetector(seed), self._dataset(), num_runs=0)

    def test_average_summaries(self):
        run = RunMetrics(precision=1.0, recall=0.5, f1=2 / 3, r_auc_pr=0.4, add=10.0)
        a = EvaluationSummary(detector="D", dataset="X", runs=[run])
        b = EvaluationSummary(detector="D", dataset="Y", runs=[run, run])
        averaged = average_summaries([a, b])
        assert averaged["precision"] == pytest.approx(1.0)
        assert averaged["add"] == pytest.approx(10.0)

    def test_average_summaries_empty_raises(self):
        with pytest.raises(ValueError):
            average_summaries([])

    def test_format_results_table(self):
        run = RunMetrics(precision=0.9, recall=0.8, f1=0.85, r_auc_pr=0.3, add=12.0)
        summary = EvaluationSummary(detector="ImDiffusion", dataset="SMD", runs=[run])
        table = format_results_table([summary])
        assert "ImDiffusion" in table
        assert "SMD" in table
        assert "0.8500" in table


class TestBenchMatrix:
    """``repro bench``'s runner on one dataset: 2 detectors x 2 samplers x
    2 worker counts, written to and read back from one JSON artifact."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        result = run_bench_matrix(
            ["ImDiffusion", "OmniAnomaly"], ["SMD"],
            samplers=("full", "ddim"), workers=(1, 2), scale=0.04)
        path = tmp_path_factory.mktemp("bench") / "BENCH_matrix.json"
        write_bench_matrix(result, path)
        with open(path) as handle:
            return json.load(handle)

    def test_grid_writes_single_artifact(self, artifact):
        assert artifact["schema"] == "repro.bench_matrix"
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["num_cells"] == 2 * 2 * 2
        assert artifact["num_cells"] == len(artifact["cells"])
        # ImDiffusion honours every cell; OmniAnomaly has no sampler knob,
        # so its ddim cells are marked skipped rather than re-run.
        ran = [c for c in artifact["cells"] if not c["skipped"]]
        skipped = [c for c in artifact["cells"] if c["skipped"]]
        assert len(ran) == 4 + 2
        assert all(c["detector"] == "OmniAnomaly" and c["sampler"] == "ddim"
                   for c in skipped)
        assert all(c["metrics"] is None for c in skipped)
        for cell in ran:
            assert 0.0 <= cell["metrics"]["f1"] <= 1.0
            assert cell["metrics"]["train_seconds"] >= 0.0

    def test_worker_cells_match_serial_metrics(self, artifact):
        def metric(detector, workers):
            for cell in artifact["cells"]:
                if (cell["detector"] == detector and cell["sampler"] == "full"
                        and cell["num_workers"] == workers):
                    return cell["metrics"]
            raise AssertionError(f"missing cell {detector}/{workers}")

        for detector in ("ImDiffusion", "OmniAnomaly"):
            serial, parallel = metric(detector, 1), metric(detector, 2)
            for key in ("precision", "recall", "f1", "r_auc_pr"):
                assert abs(serial[key] - parallel[key]) < 1e-6, (detector, key)
