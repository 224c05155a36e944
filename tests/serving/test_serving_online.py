"""Tests for the reworked online harness and the `repro serve` CLI command."""

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.cli import build_parser, main
from repro.data import MicroserviceLatencySimulator, ProductionConfig
from repro.production import LegacyThresholdDetector, online, run_online_evaluation


@pytest.fixture(scope="module")
def trace():
    sim = MicroserviceLatencySimulator(ProductionConfig(
        num_services=4, train_days=2, test_days=2, seed=5))
    return sim.generate()


class TestBoundedOnlineEvaluation:
    def test_matches_full_history_when_buffer_covers_stream(self, trace):
        """With eval_buffer >= stream length the bounded path reproduces the
        seed full-history behaviour exactly (legacy detector is deterministic)."""
        bounded = run_online_evaluation(LegacyThresholdDetector(seed=0), trace,
                                        rescore_every=32, eval_buffer=10_000)
        # Reference: the seed algorithm, inlined.
        detector = LegacyThresholdDetector(seed=0)
        detector.fit(trace.train)
        length = trace.test.shape[0]
        labels = np.zeros(length, dtype=np.int64)
        processed = 0
        while processed < length:
            next_block = min(processed + 32, length)
            prediction = detector.predict(trace.test[:next_block])
            labels[processed:next_block] = prediction.labels[processed:next_block]
            processed = next_block
        assert np.array_equal(bounded.labels, labels)

    def test_small_buffer_still_produces_full_labels(self, trace):
        evaluation = run_online_evaluation(LegacyThresholdDetector(seed=0),
                                           trace, rescore_every=16,
                                           eval_buffer=64)
        assert evaluation.labels.shape == trace.test_labels.shape
        assert 0.0 <= evaluation.metrics.f1 <= 1.0

    def test_every_poll_scores_at_most_eval_buffer_rows(self, trace):
        """Per-poll work is bounded by eval_buffer, so the stream costs O(n)
        rather than the O(n^2) of re-scoring the full history."""
        scored_rows = []

        class SpyDetector(LegacyThresholdDetector):
            def predict(self, test):
                scored_rows.append(test.shape[0])
                return super().predict(test)

        run_online_evaluation(SpyDetector(seed=0), trace, rescore_every=8,
                              eval_buffer=32)
        length = trace.test.shape[0]
        assert length > 4 * 32
        assert len(scored_rows) == -(-length // 8)
        # The history grows until it fills the buffer; from then on every
        # poll sees exactly the trailing 32 rows.
        assert scored_rows[:4] == [8, 16, 24, 32]
        assert set(scored_rows[3:]) == {32}

    def test_invalid_parameters_raise(self, trace):
        with pytest.raises(ValueError):
            run_online_evaluation(LegacyThresholdDetector(seed=0), trace,
                                  rescore_every=0)
        with pytest.raises(ValueError):
            run_online_evaluation(LegacyThresholdDetector(seed=0), trace,
                                  rescore_every=64, eval_buffer=32)

    def test_imdiffusion_uses_incremental_path(self, trace, monkeypatch):
        def bounded_path(*args, **kwargs):
            raise AssertionError("ImDiffusion must not take the bounded path")

        monkeypatch.setattr(online, "_stream_bounded", bounded_path)
        config = ImDiffusionConfig(
            window_size=16, num_steps=4, epochs=1, hidden_dim=8, num_blocks=1,
            num_heads=2, max_train_windows=8, num_masked_windows=2,
            num_unmasked_windows=2, deterministic_inference=True,
            collect="x0", seed=0)
        log_trace = type(trace)(train=np.log(trace.train),
                                test=np.log(trace.test),
                                test_labels=trace.test_labels)
        evaluation = run_online_evaluation(ImDiffusionDetector(config),
                                           log_trace, rescore_every=24,
                                           eval_buffer=128)
        assert evaluation.labels.shape == trace.test_labels.shape
        assert evaluation.scores.shape == trace.test_labels.shape
        assert evaluation.points_per_second > 0
        # The whole stream must have been scored, not just whole windows.
        assert evaluation.scores[-1] != 0.0 or evaluation.scores[-2] != 0.0


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenants == 4
        assert args.flush_size == 8
        assert args.model_name == "latency-monitor"

    def test_serve_runs_small(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--tenants", "2", "--samples", "96",
            "--window-size", "16", "--num-steps", "4", "--epochs", "1",
            "--hidden-dim", "8", "--history", "128",
            "--registry", str(tmp_path / "registry"),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "tenant-0" in output and "tenant-1" in output
        assert "points_per_second" in output
        assert "batches_flushed" in output

    def test_serve_rejects_mismatched_warm_model(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        base = ["serve", "--tenants", "1", "--samples", "48",
                "--window-size", "16", "--num-steps", "4", "--epochs", "1",
                "--hidden-dim", "8", "--history", "128",
                "--registry", registry_dir]
        assert main(base + ["--services", "6"]) == 0
        capsys.readouterr()
        assert main(base + ["--services", "4"]) == 2
        output = capsys.readouterr().out
        assert "error:" in output and "6 services" in output

    def test_serve_reuses_registry_model(self, capsys, tmp_path):
        registry_dir = str(tmp_path / "registry")
        base = ["serve", "--tenants", "1", "--samples", "48",
                "--window-size", "16", "--num-steps", "4", "--epochs", "1",
                "--hidden-dim", "8", "--history", "128",
                "--registry", registry_dir]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 0
        output = capsys.readouterr().out
        assert "Loading warm model" in output
