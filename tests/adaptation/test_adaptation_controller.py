"""The adaptation controller: end-to-end loop, rollback bit-identity, CLI."""

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.adaptation import (
    AdaptationConfig,
    AdaptationController,
    run_drift_scenario,
    training_tail_reference,
)
from repro.serving import DetectorService, ModelRegistry, ServingConfig

WINDOW = 16


def make_series(length, channels=3, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 32)[:, None] * np.ones((1, channels))
    return base + 0.1 * rng.standard_normal((length, channels)) + shift


@pytest.fixture(scope="module")
def detector():
    config = ImDiffusionConfig(
        window_size=WINDOW, num_steps=4, epochs=1, hidden_dim=8, num_blocks=1,
        num_heads=2, max_train_windows=12, num_masked_windows=2,
        num_unmasked_windows=2, deterministic_inference=True, collect="x0",
        train_stride=8, seed=0)
    return ImDiffusionDetector(config).fit(make_series(200, seed=1))


@pytest.fixture(scope="module")
def reference(detector):
    return training_tail_reference(detector, make_series(200, seed=1),
                                   points=96)


def drifting_stream(length=192, seed=4):
    """In-distribution head, strongly shifted tail (guaranteed drift)."""
    head = make_series(length // 2, seed=seed)
    tail = make_series(length - length // 2, seed=seed + 1, shift=3.0)
    return np.concatenate([head, tail])


def serve(detector, stream, controller_config=None, registry=None,
          chunk=16, model_name="served"):
    clone = ImDiffusionDetector.from_checkpoint(*detector.to_checkpoint())
    service = DetectorService(clone, ServingConfig(
        flush_size=4, flush_age=3600.0, history=stream.shape[0],
        raw_capacity=stream.shape[0]))
    service.register_tenant("t0")
    controller = None
    if controller_config is not None:
        controller = AdaptationController(
            service, detector_reference(detector), config=controller_config,
            registry=registry, model_name=model_name)
    with service:
        for start in range(0, stream.shape[0], chunk):
            service.ingest("t0", stream[start:start + chunk])
            if controller is not None:
                controller.poll()
        service.drain()
        if controller is not None:
            controller.poll()
        view = service.tenant_view("t0")
    return view, controller, service


_REFERENCE_CACHE = {}


def detector_reference(detector):
    key = id(detector)
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = training_tail_reference(
            detector, make_series(200, seed=1), points=96)
    return _REFERENCE_CACHE[key]


def sensitive_config(**overrides):
    params = dict(policy="error_shift(window=16, ratio=1.5)",
                  min_adapt_windows=2, adapt_epochs=1, cooldown_points=64,
                  holdout_fraction=0.25, reference_points=96)
    params.update(overrides)
    return AdaptationConfig(**params)


# ----------------------------------------------------------------------
# The adapted path
# ----------------------------------------------------------------------
def test_drift_triggers_adaptation_and_publishes_lineage(detector, tmp_path):
    registry = ModelRegistry(tmp_path)
    stream = drifting_stream()
    view, controller, service = serve(
        detector, stream, sensitive_config(), registry=registry)

    kinds = [e.kind for e in controller.drift_events]
    assert "drift" in kinds
    actions = [r.action for r in controller.history]
    assert "adapted" in actions or "rolled_back" in actions

    # v1 is the serving baseline; each attempt published the next version.
    attempts = [r for r in controller.history if r.action != "skipped"]
    assert registry.versions("served") == list(range(1, len(attempts) + 2))
    v1 = registry.load_version("served", 1)
    base_arrays, _ = detector.to_checkpoint()
    v1_arrays, _ = v1.to_checkpoint()
    assert all(np.array_equal(base_arrays[k], v1_arrays[k])
               for k in base_arrays)

    # Every transition is accounted in the service metrics.
    snap = service.metrics.snapshot()
    assert snap["drift_events"] >= 1
    assert snap["models_published"] == len(attempts) + 1
    assert snap["hot_swaps"] >= len(
        [r for r in attempts if r.action == "adapted"])
    adapted = [r for r in attempts if r.action == "adapted"]
    if adapted:
        assert controller.active_version == adapted[-1].version
        assert np.isfinite(adapted[-1].base_error)
        assert np.isfinite(adapted[-1].candidate_error)


def test_adaptation_changes_served_scores(detector):
    stream = drifting_stream()
    frozen_view, _, _ = serve(detector, stream)
    adapted_view, controller, _ = serve(detector, stream, sensitive_config())
    assert any(r.action == "adapted" for r in controller.history)
    assert not np.array_equal(frozen_view.scores, adapted_view.scores,
                              equal_nan=True)
    # Scores before the first swap are untouched.
    first = min(r.index for r in controller.history if r.action != "skipped")
    span = first - frozen_view.start
    assert span > 0
    assert np.array_equal(frozen_view.scores[:span],
                          adapted_view.scores[:span], equal_nan=True)


# ----------------------------------------------------------------------
# Rollback bit-identity
# ----------------------------------------------------------------------
def test_forced_rollback_is_bit_identical_to_frozen(detector):
    stream = drifting_stream()
    frozen_view, _, _ = serve(detector, stream)
    rolled_view, controller, service = serve(
        detector, stream, sensitive_config(regression_tolerance=-1.0))
    actions = [r.action for r in controller.history if r.action != "skipped"]
    assert actions and all(a == "rolled_back" for a in actions)
    assert service.metrics.rollbacks == len(actions)
    assert frozen_view.start == rolled_view.start
    assert frozen_view.end == rolled_view.end
    assert np.array_equal(frozen_view.scores, rolled_view.scores,
                          equal_nan=True)
    assert np.array_equal(frozen_view.labels, rolled_view.labels)


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------
def test_min_adapt_windows_skips_thin_buffers(detector):
    stream = drifting_stream()
    view, controller, service = serve(
        detector, stream, sensitive_config(min_adapt_windows=1000))
    assert controller.drift_events  # drift still detected...
    actions = [r.action for r in controller.history]
    assert actions and all(a == "skipped" for a in actions)  # ...never adapted
    assert all("min_adapt_windows" in r.detail or r.detail == "cooldown"
               for r in controller.history)
    assert service.metrics.adaptations_skipped == len(actions)
    assert service.metrics.hot_swaps == 0
    assert service.metrics.models_published == 0


def test_cooldown_skips_follow_up_edges(detector):
    stream = drifting_stream()
    _, controller, _ = serve(
        detector, stream, sensitive_config(cooldown_points=10_000))
    non_skip = [r for r in controller.history if r.action != "skipped"]
    assert len(non_skip) <= 1
    cooldowns = [r for r in controller.history if r.detail == "cooldown"]
    if len(controller.history) > 1:
        assert cooldowns


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptationConfig(min_adapt_windows=0)
    with pytest.raises(ValueError):
        AdaptationConfig(adapt_epochs=0)
    with pytest.raises(ValueError):
        AdaptationConfig(holdout_fraction=1.5)
    with pytest.raises(ValueError):
        AdaptationConfig(cooldown_points=-1)


# ----------------------------------------------------------------------
# The packaged scenario
# ----------------------------------------------------------------------
def test_adaptation_beats_frozen_on_post_drift_tail(tmp_path):
    """The pinned scenario (`repro adapt` defaults) adapts and lifts tail F1."""
    registry = ModelRegistry(tmp_path)
    result = run_drift_scenario(
        dataset="DRIFT", scale=0.1, seed=1, train_fraction=0.25,
        registry=registry,
        adaptation=AdaptationConfig(policy="default", min_adapt_windows=4,
                                    adapt_epochs=2, cooldown_points=96,
                                    reference_points=128))
    assert any(e.kind == "drift" for e in result.events)
    adapted_rounds = [r for r in result.records if r.action == "adapted"]
    assert adapted_rounds, "no adaptation round was applied"
    assert result.adapted["f1"] >= result.frozen["f1"]
    assert result.metrics["hot_swaps"] >= len(adapted_rounds)
    assert result.metrics["models_published"] >= len(adapted_rounds) + 1
    # v1 is the frozen baseline; each non-skipped round published the next.
    versions = registry.versions("drift-demo")
    assert versions[0] == 1 and len(versions) >= 2


@pytest.mark.parametrize("score_workers", [1, 2])
def test_run_drift_scenario_forced_rollback_bit_identity(tmp_path,
                                                         score_workers):
    registry = ModelRegistry(tmp_path)
    result = run_drift_scenario(
        dataset="DRIFT", scale=0.05, seed=1, train_fraction=0.3,
        score_workers=score_workers, registry=registry, model_name="demo",
        adaptation=AdaptationConfig(policy="sensitive", min_adapt_windows=2,
                                    adapt_epochs=1, cooldown_points=64,
                                    reference_points=64,
                                    regression_tolerance=-1.0))
    assert result.bit_identical
    attempts = [r for r in result.records if r.action != "skipped"]
    assert attempts and all(r.action == "rolled_back" for r in attempts)
    assert result.metrics["rollbacks"] == len(attempts)
    assert registry.versions("demo")[0] == 1
    assert result.summary_lines()
