"""Tests for the model registry: checkpoint round-trips and cataloguing."""

import copy
import os

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.nn.serialization import load_checkpoint_metadata
from repro.serving import ModelRegistry


def make_series(length, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 32)[:, None] * np.ones((1, channels))
    return base + 0.1 * rng.standard_normal((length, channels))


@pytest.fixture(scope="module")
def fitted_detector():
    config = ImDiffusionConfig(
        window_size=16, num_steps=4, epochs=1, hidden_dim=8, num_blocks=1,
        num_heads=2, max_train_windows=12, num_masked_windows=2,
        num_unmasked_windows=2, seed=0)
    return ImDiffusionDetector(config).fit(make_series(200, seed=1))


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(str(tmp_path / "models"))


class TestRoundTrip:
    def test_predictions_are_bit_identical(self, fitted_detector, registry):
        registry.save("monitor", fitted_detector)
        restored = registry.load("monitor")
        test = make_series(64, seed=2)
        # Stochastic inference: identity holds because the checkpoint captures
        # the exact generator state alongside the weights.
        original = fitted_detector.predict(test)
        loaded = restored.predict(test)
        assert np.array_equal(original.labels, loaded.labels)
        assert np.array_equal(original.scores, loaded.scores)
        for step in original.step_errors:
            assert np.array_equal(original.step_errors[step],
                                  loaded.step_errors[step])

    def test_scaler_and_config_survive(self, fitted_detector, registry):
        registry.save("monitor", fitted_detector)
        restored = registry.load("monitor")
        assert restored.config == fitted_detector.config
        assert restored.num_features == fitted_detector.num_features
        np.testing.assert_array_equal(restored._scaler.mean_,
                                      fitted_detector._scaler.mean_)
        np.testing.assert_array_equal(restored._scaler.std_,
                                      fitted_detector._scaler.std_)
        assert restored.train_losses == fitted_detector.train_losses

    def test_weights_survive(self, fitted_detector, registry):
        registry.save("monitor", fitted_detector)
        restored = registry.load("monitor")
        original_state = fitted_detector.model.state_dict()
        for name, value in restored.model.state_dict().items():
            np.testing.assert_array_equal(value, original_state[name])


class TestCatalogue:
    def test_list_contains_and_delete(self, fitted_detector, registry):
        assert registry.list_models() == []
        registry.save("a", fitted_detector)
        registry.save("b", fitted_detector)
        assert registry.list_models() == ["a", "b"]
        assert "a" in registry and "missing" not in registry
        registry.delete("a")
        assert registry.list_models() == ["b"]

    def test_record_metadata(self, fitted_detector, registry):
        path = registry.save("monitor", fitted_detector, metadata={"team": "sre"})
        record = registry.record("monitor")
        assert record.path == path
        assert os.path.exists(record.path)
        assert record.num_features == 3
        assert record.window_size == 16
        assert record.num_steps == 4
        assert record.size_bytes > 0
        assert record.created_at > 0
        assert "monitor" in record.describe()

    def test_save_overwrites_existing(self, fitted_detector, registry):
        registry.save("monitor", fitted_detector)
        first = registry.record("monitor").created_at
        registry.save("monitor", fitted_detector)
        assert registry.record("monitor").created_at >= first
        assert registry.list_models() == ["monitor"]


class TestVersions:
    def test_stale_publisher_never_overwrites_a_version(self, fitted_detector,
                                                        tmp_path):
        # Two publishers on one root; the second read latest_version before
        # the first published, so it computes the number the first just took.
        root = str(tmp_path / "models")
        first, second = ModelRegistry(root), ModelRegistry(root)
        stale = second.latest_version("served")
        second.latest_version = lambda name: stale
        retrained = copy.deepcopy(fitted_detector)
        for parameter in retrained.model.parameters():
            parameter.data = parameter.data + 1.0

        assert first.publish_version("served", fitted_detector) == 1
        assert second.publish_version("served", retrained) == 2

        assert first.versions("served") == [1, 2]
        for version, source in ((1, fitted_detector), (2, retrained)):
            loaded = first.load_version("served", version)
            for a, b in zip(loaded.model.parameters(),
                            source.model.parameters()):
                np.testing.assert_array_equal(a.data, b.data)
            extra = load_checkpoint_metadata(
                first.record(f"served.v{version}").path)["registry"]["extra"]
            assert extra["version"] == version
        # Every writer used a private temp file, and none is left behind.
        assert sorted(os.listdir(root)) == ["served.v1.ckpt.npz",
                                            "served.v2.ckpt.npz"]


class TestErrors:
    def test_load_missing_raises(self, registry):
        with pytest.raises(KeyError):
            registry.load("nope")
        with pytest.raises(KeyError):
            registry.record("nope")
        with pytest.raises(KeyError):
            registry.delete("nope")

    def test_invalid_name_raises(self, fitted_detector, registry):
        with pytest.raises(ValueError):
            registry.save("../escape", fitted_detector)
        with pytest.raises(ValueError):
            registry.save("", fitted_detector)

    def test_unfitted_detector_cannot_be_saved(self, registry):
        with pytest.raises(RuntimeError):
            registry.save("fresh", ImDiffusionDetector())

    def test_unsupported_format_version(self, fitted_detector):
        arrays, meta = fitted_detector.to_checkpoint()
        meta["format_version"] = 99
        with pytest.raises(ValueError):
            ImDiffusionDetector.from_checkpoint(arrays, meta)
