"""Inference engine: array timesteps, reverse samplers and strided scoring.

The stride-1 regression test embeds a frozen copy of the pre-engine reverse
loop (scalar ``t``, hard-coded ``for t in range(T, 0, -1)``, per-step
``p_sample``) and asserts the refactored engine reproduces it bit for bit,
for both the full sampler and the strided sampler at stride 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.diffusion import (
    FullReverseSampler,
    GaussianDiffusion,
    ImputedDiffusion,
    StridedReverseSampler,
    make_sampler,
    linear_beta_schedule,
    quadratic_beta_schedule,
)
from repro.masking import GratingMasking
from repro.models import ImTransformer
from repro.nn import is_grad_enabled


# ---------------------------------------------------------------------------
# Array-valued timesteps against the scalar reference
# ---------------------------------------------------------------------------
class TestArrayTimesteps:
    def setup_method(self):
        self.diffusion = GaussianDiffusion(linear_beta_schedule(30))
        self.rng = np.random.default_rng(0)

    def test_q_sample_gather_matches_scalar_calls(self):
        x0 = self.rng.normal(size=(6, 3, 4))
        t = np.array([1, 5, 12, 30, 2, 17])
        noise = self.rng.standard_normal(x0.shape)
        x_t, _ = self.diffusion.q_sample(x0, t, noise=noise)
        for i, step in enumerate(t):
            x_i, _ = self.diffusion.q_sample(x0[i], int(step), noise=noise[i])
            np.testing.assert_array_equal(x_t[i], x_i)

    def test_predict_x0_gather_matches_scalar_calls(self):
        x0 = self.rng.normal(size=(5, 2, 3))
        t = np.array([3, 9, 1, 30, 20])
        x_t, noise = self.diffusion.q_sample(x0, t, rng=self.rng)
        recovered = self.diffusion.predict_x0_from_eps(x_t, t, noise)
        np.testing.assert_allclose(recovered, x0, atol=1e-10)
        for i, step in enumerate(t):
            np.testing.assert_array_equal(
                recovered[i],
                self.diffusion.predict_x0_from_eps(x_t[i], int(step), noise[i]))

    def test_p_mean_variance_gather_matches_scalar_calls(self):
        x_t = self.rng.normal(size=(4, 3, 5))
        eps = self.rng.normal(size=(4, 3, 5))
        t = np.array([1, 2, 15, 30])
        mean, variance = self.diffusion.p_mean_variance(x_t, t, eps)
        assert variance.shape == (4, 1, 1)
        for i, step in enumerate(t):
            mean_i, var_i = self.diffusion.p_mean_variance(x_t[i], int(step), eps[i])
            np.testing.assert_array_equal(mean[i], mean_i)
            assert variance[i, 0, 0] == pytest.approx(var_i, abs=0.0)

    def test_posterior_variance_vectorised_matches_scalar(self):
        t = np.arange(1, 31)
        variances = self.diffusion.schedule.posterior_variance(t)
        for i, step in enumerate(t):
            assert variances[i] == self.diffusion.schedule.posterior_variance(int(step))

    def test_p_sample_keeps_t1_rows_noise_free(self):
        x_t = self.rng.normal(size=(3, 2, 2))
        eps = self.rng.normal(size=(3, 2, 2))
        t = np.array([1, 10, 1])
        out = self.diffusion.p_sample(x_t, t, eps, rng=np.random.default_rng(1))
        mean = self.diffusion.posterior_mean_from_eps(x_t, t, eps)
        np.testing.assert_array_equal(out[0], mean[0])
        np.testing.assert_array_equal(out[2], mean[2])
        assert not np.array_equal(out[1], mean[1])

    def test_p_sample_all_t1_draws_no_rng(self):
        x_t = self.rng.normal(size=(2, 3))
        eps = self.rng.normal(size=(2, 3))
        rng = np.random.default_rng(9)
        self.diffusion.p_sample(x_t, np.array([1, 1]), eps, rng=rng)
        untouched = np.random.default_rng(9)
        np.testing.assert_array_equal(rng.standard_normal(4), untouched.standard_normal(4))

    def test_invalid_array_steps_rejected(self):
        with pytest.raises(ValueError):
            self.diffusion.q_sample(np.zeros((2, 3)), np.array([0, 5]))
        with pytest.raises(ValueError):
            self.diffusion.q_sample(np.zeros((2, 3)), np.array([1, 31]))
        with pytest.raises(ValueError):
            self.diffusion.q_sample(np.zeros((2, 3)), np.array([[1, 2]]))

    @settings(max_examples=20, deadline=None)
    @given(steps=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    def test_property_gather_equals_per_sample_scalar(self, steps):
        t = np.asarray(steps)
        x0 = np.linspace(-1, 1, t.size * 6).reshape(t.size, 2, 3)
        noise = np.ones_like(x0) * 0.5
        x_t, _ = self.diffusion.q_sample(x0, t, noise=noise)
        for i, step in enumerate(steps):
            x_i, _ = self.diffusion.q_sample(x0[i], step, noise=noise[i])
            np.testing.assert_array_equal(x_t[i], x_i)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------
class TestTrajectories:
    def test_full_trajectory(self):
        assert FullReverseSampler().trajectory(6) == [6, 5, 4, 3, 2, 1]

    def test_strided_by_stride_ends_at_one(self):
        assert StridedReverseSampler(stride=4).trajectory(20) == [20, 16, 12, 8, 4, 1]
        assert StridedReverseSampler(stride=4).trajectory(8) == [8, 4, 1]

    def test_stride_one_equals_full(self):
        assert (StridedReverseSampler(stride=1).trajectory(9)
                == FullReverseSampler().trajectory(9))

    def test_strided_by_count_is_evenly_spaced(self):
        traj = StridedReverseSampler(num_inference_steps=5).trajectory(20)
        assert len(traj) == 5
        assert traj[0] == 20 and traj[-1] == 1
        assert traj == sorted(traj, reverse=True)

    def test_count_larger_than_num_steps_clamps(self):
        traj = StridedReverseSampler(num_inference_steps=50).trajectory(8)
        assert traj == list(range(8, 0, -1))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StridedReverseSampler()
        with pytest.raises(ValueError):
            StridedReverseSampler(stride=2, num_inference_steps=4)
        with pytest.raises(ValueError):
            StridedReverseSampler(stride=0)
        with pytest.raises(ValueError):
            StridedReverseSampler(num_inference_steps=1)

    def test_make_sampler(self):
        assert make_sampler("full").name == "full"
        assert make_sampler("strided", num_inference_steps=4).name == "strided"
        assert make_sampler("strided", stride=2).trajectory(6) == [6, 4, 2, 1]
        with pytest.raises(KeyError):
            make_sampler("unknown")
        with pytest.raises(ValueError):
            make_sampler("strided")

    def test_full_sampler_rejects_jumps(self):
        diffusion = GaussianDiffusion(linear_beta_schedule(10))
        with pytest.raises(ValueError):
            FullReverseSampler().step(diffusion, np.zeros(3), 8, 4, np.zeros(3))


# ---------------------------------------------------------------------------
# Stride-1 identity against the frozen pre-engine reverse loop
# ---------------------------------------------------------------------------
def _legacy_impute(imputer, windows, masks, policies, rng, collect="sample",
                   deterministic=False):
    """The pre-engine reverse loop, frozen verbatim (scalar t, full walk)."""
    windows = np.asarray(windows, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    batch = windows.shape[0]
    diffusion = imputer.diffusion

    x0 = windows.transpose(0, 2, 1)
    observed = masks.transpose(0, 2, 1)
    target_region = 1.0 - observed

    x_t = diffusion.prior_sample(x0.shape, rng) * target_region
    intermediate = []
    for t in range(diffusion.num_steps, 0, -1):
        steps = np.full(batch, t, dtype=np.int64)
        step_noise = rng.standard_normal(x0.shape)
        reference = imputer._reference_channel(x0, observed, step_noise)
        model_input = imputer._build_input(x_t * target_region, reference)
        predicted_eps = imputer.model(model_input, steps, policies).data

        if collect == "x0":
            estimate = diffusion.predict_x0_from_eps(x_t, t, predicted_eps)
        x_prev = diffusion.p_sample(x_t, t, predicted_eps, rng=rng,
                                    deterministic=deterministic)
        x_prev = x_prev * target_region
        if collect == "sample":
            estimate = x_prev
        intermediate.append((t, (estimate * target_region + x0 * observed).transpose(0, 2, 1)))
        x_t = x_prev
    final = (x_t * target_region + x0 * observed).transpose(0, 2, 1)
    return final, intermediate


def _tiny_imputer(num_steps=8, seed=0):
    rng = np.random.default_rng(seed)
    model = ImTransformer(num_features=4, hidden_dim=8, num_blocks=1,
                          num_heads=2, rng=rng)
    diffusion = GaussianDiffusion(quadratic_beta_schedule(num_steps))
    imputer = ImputedDiffusion(model, diffusion)
    masks = GratingMasking(2, 2).masks(20, 4)
    windows = np.random.default_rng(seed + 1).normal(size=(3, 20, 4))
    mask_batch = np.stack([masks[0], masks[1], masks[0]])
    policies = np.array([0, 1, 0])
    return imputer, windows, mask_batch, policies


class TestStrideOneIdentity:
    @pytest.mark.parametrize("collect", ["sample", "x0"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_engine_matches_legacy_loop(self, collect, deterministic):
        imputer, windows, masks, policies = _tiny_imputer()
        legacy_final, legacy_steps = _legacy_impute(
            imputer, windows, masks, policies, np.random.default_rng(7),
            collect=collect, deterministic=deterministic)
        for sampler in (None, FullReverseSampler(), StridedReverseSampler(stride=1)):
            result = imputer.impute(windows, masks, policies,
                                    np.random.default_rng(7), collect=collect,
                                    deterministic=deterministic, sampler=sampler)
            np.testing.assert_array_equal(result.final, legacy_final)
            assert result.steps() == [step for step, _ in legacy_steps]
            for (_, expected), (_, actual) in zip(legacy_steps, result.intermediate):
                np.testing.assert_array_equal(actual, expected)


# ---------------------------------------------------------------------------
# Strided trajectories through impute and the detector
# ---------------------------------------------------------------------------
class TestStridedImpute:
    def test_steps_reflect_visited_subsequence(self):
        imputer, windows, masks, policies = _tiny_imputer(num_steps=8)
        result = imputer.impute(windows, masks, policies, np.random.default_rng(0),
                                sampler=StridedReverseSampler(stride=4))
        assert result.steps() == [8, 4, 1]
        assert len(result.intermediate) == 3
        assert np.isfinite(result.final).all()

    def test_strided_preserves_observed_values(self):
        imputer, windows, masks, policies = _tiny_imputer(num_steps=8)
        result = imputer.impute(windows, masks, policies, np.random.default_rng(0),
                                sampler=StridedReverseSampler(num_inference_steps=3))
        observed = masks.astype(bool)
        np.testing.assert_allclose(result.final[observed], windows[observed])
        for _, estimate in result.intermediate:
            np.testing.assert_allclose(estimate[observed], windows[observed])

    def test_imputation_error_keys_follow_visited_steps(self):
        imputer, windows, masks, policies = _tiny_imputer(num_steps=8)
        result = imputer.impute(windows, masks, policies, np.random.default_rng(0),
                                sampler=StridedReverseSampler(stride=4))
        errors = imputer.imputation_error(windows, result, masks)
        assert sorted(errors) == [1, 4, 8]


def _fitted_detector(**overrides):
    rng = np.random.default_rng(0)
    config = ImDiffusionConfig(
        window_size=16, num_steps=8, epochs=1, hidden_dim=8, num_blocks=1,
        num_heads=2, max_train_windows=8, num_masked_windows=2,
        num_unmasked_windows=2, batch_size=16, seed=0, **overrides)
    series = (np.sin(np.linspace(0, 12 * np.pi, 240))[:, None]
              * np.ones((1, 3)) + 0.05 * rng.standard_normal((240, 3)))
    return ImDiffusionDetector(config).fit(series), series


class TestDetectorStridedScoring:
    def test_config_inference_steps(self):
        assert ImDiffusionConfig(num_steps=8).inference_steps == 8
        assert ImDiffusionConfig(num_steps=8, sampler="strided",
                                 num_inference_steps=3).inference_steps == 3
        # strided default: about a quarter of the trajectory
        assert ImDiffusionConfig(num_steps=20, sampler="strided").inference_steps == 5

    def test_num_inference_steps_implies_strided(self):
        config = ImDiffusionConfig(num_steps=8, num_inference_steps=4)
        assert config.sampler == "strided"
        assert config.inference_steps == 4

    def test_config_rejects_bad_engine_knobs(self):
        with pytest.raises(ValueError):
            ImDiffusionConfig(sampler="warp")
        with pytest.raises(ValueError):
            ImDiffusionConfig(num_steps=8, num_inference_steps=9)
        with pytest.raises(ValueError):
            ImDiffusionConfig(num_inference_steps=1)

    def test_score_collects_inference_steps_entries(self):
        detector, series = _fitted_detector(sampler="strided", num_inference_steps=3)
        step_errors = detector.score(series)
        assert sorted(step_errors) == [1, 2, 3]
        for errors in step_errors.values():
            assert errors.shape == (series.shape[0],)
            assert np.isfinite(errors).all()

    def test_predict_works_with_strided_sampler(self):
        detector, series = _fitted_detector(sampler="strided", num_inference_steps=3)
        result = detector.predict(series)
        assert result.labels.shape == (series.shape[0],)
        assert set(np.unique(result.labels)) <= {0, 1}

    def test_full_and_stride1_scores_are_identical(self):
        detector, series = _fitted_detector()
        full_errors = detector.score(series)

        stride1, _ = _fitted_detector(sampler="strided", num_inference_steps=8)
        step_errors = stride1.score(series)
        assert sorted(step_errors) == sorted(full_errors)
        for key in full_errors:
            np.testing.assert_array_equal(step_errors[key], full_errors[key])

    def test_quarter_stride_scoring_makes_a_quarter_of_the_denoiser_calls(
            self, monkeypatch):
        """Where scoring's speed comes from: every denoiser call of score()
        records no graph, and at T/4 steps the strided sampler makes 4x
        fewer of them than the full trajectory."""
        full, series = _fitted_detector()
        strided, _ = _fitted_detector(sampler="strided", num_inference_steps=2)
        grad_modes = []
        forward = ImTransformer.forward

        def counted_forward(self, *args, **kwargs):
            grad_modes.append(is_grad_enabled())
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(ImTransformer, "forward", counted_forward)
        full.score(series)
        full_calls = len(grad_modes)
        strided.score(series)
        strided_calls = len(grad_modes) - full_calls
        assert full_calls > 0
        assert full_calls == 4 * strided_calls
        assert not any(grad_modes)

    def test_model_left_in_training_mode_after_score(self):
        detector, series = _fitted_detector()
        assert detector.model.training
        detector.score(series)
        assert detector.model.training

    def test_checkpoint_round_trip_preserves_engine_knobs(self):
        detector, series = _fitted_detector(sampler="strided", num_inference_steps=3)
        arrays, metadata = detector.to_checkpoint()
        restored = ImDiffusionDetector.from_checkpoint(arrays, metadata)
        assert restored.config.sampler == "strided"
        assert restored.config.num_inference_steps == 3
        np.testing.assert_array_equal(
            restored.score(series)[3], detector.score(series)[3])


class TestServingStridedScoring:
    def test_incremental_scorer_sizes_cache_by_inference_steps(self):
        from repro.serving import IncrementalScorer

        detector, series = _fitted_detector(sampler="strided", num_inference_steps=3,
                                            deterministic_inference=True)
        scorer = IncrementalScorer(detector, history=64)
        assert scorer.num_steps == 3
        scorer.register_tenant("t0")
        scorer.ingest("t0", series[:48])
        assert scorer.score_pending("t0") == 3
        view = scorer.decide("t0")
        assert view.labels.shape[0] == 48
        assert np.isfinite(view.scores).all()

    def test_score_window_batch_keys_match_inference_steps(self):
        from repro.serving import IncrementalScorer

        detector, series = _fitted_detector(sampler="strided", num_inference_steps=3,
                                            deterministic_inference=True)
        scorer = IncrementalScorer(detector, history=64)
        windows = np.stack([series[:16], series[16:32]])
        errors = scorer.score_window_batch(windows, rng=np.random.default_rng(0))
        assert sorted(errors) == [1, 2, 3]
        assert errors[3].shape == (2, 16)


class TestEvaluationRunnerKnob:
    def test_engine_overrides_are_applied(self):
        from repro.data import load_dataset
        from repro.evaluation import evaluate_detector

        dataset = load_dataset("SMD", seed=0, scale=0.02)
        seen = []

        def factory(seed):
            detector = ImDiffusionDetector(ImDiffusionConfig(
                window_size=16, num_steps=6, epochs=1, hidden_dim=8,
                num_blocks=1, num_heads=2, max_train_windows=8,
                num_masked_windows=2, num_unmasked_windows=2, seed=seed))
            seen.append(detector)
            return detector

        summary = evaluate_detector(factory, dataset, num_runs=1,
                                    sampler="strided", num_inference_steps=2)
        assert len(summary.runs) == 1
        assert seen[0].config.sampler == "strided"
        assert seen[0].config.num_inference_steps == 2

    def test_overrides_skip_baselines(self):
        from repro.evaluation import apply_detector_overrides

        class Plain:
            pass

        detector = Plain()
        assert apply_detector_overrides(detector, sampler="strided",
                                        num_inference_steps=4) is detector

    def test_full_override_clears_implied_step_count(self):
        from repro.evaluation import apply_detector_overrides

        detector = ImDiffusionDetector(ImDiffusionConfig(
            num_steps=8, sampler="strided", num_inference_steps=3))
        apply_detector_overrides(detector, sampler="full")
        assert detector.config.sampler == "full"
        assert detector.config.num_inference_steps is None
        assert detector.config.inference_steps == 8
