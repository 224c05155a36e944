"""Sampler zoo: registry, spacing schedules, cached transition tables and
cross-sampler equivalences.

The equivalence discipline follows the HuggingFace ``diffusers`` scheduler
suite (config save/load round-trips per sampler knob, pairwise bitwise
identities between samplers that must coincide) and the ``jet-ddpm``
transition-probability identity tests (closed-form checks of every cached
coefficient against the schedule).  The worker-count section extends the
inference-engine identity gates to every new sampler.
"""

import copy
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.diffusion import (
    DDIMSampler,
    FullReverseSampler,
    GaussianDiffusion,
    ImputedDiffusion,
    PNDMSampler,
    SPACINGS,
    StridedReverseSampler,
    make_sampler,
    make_schedule,
    quadratic_beta_schedule,
    register_sampler,
    sampler_help,
    sampler_names,
    trajectory_steps,
)
from repro.diffusion.samplers import SAMPLER_REGISTRY
from repro.masking import GratingMasking
from repro.models import ImTransformer
from repro.training import antithetic_loss, crn_validation_rng


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


def _fitted_detector(**overrides):
    rng = np.random.default_rng(0)
    knobs = dict(window_size=16, num_steps=8, epochs=1, hidden_dim=8,
                 num_blocks=1, num_heads=2, max_train_windows=8,
                 num_masked_windows=2, num_unmasked_windows=2, batch_size=16,
                 seed=0)
    knobs.update(overrides)
    config = ImDiffusionConfig(**knobs)
    series = (np.sin(np.linspace(0, 12 * np.pi, 240))[:, None]
              * np.ones((1, 3)) + 0.05 * rng.standard_normal((240, 3)))
    return ImDiffusionDetector(config).fit(series), series


# ---------------------------------------------------------------------------
# Trajectories: exact counts, spacings, the duplicate-collapse fix
# ---------------------------------------------------------------------------
class TestTrajectorySpacings:
    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("num_steps", [8, 20, 50])
    def test_requested_count_is_honoured_exactly(self, spacing, num_steps):
        for n in range(2, num_steps + 1):
            traj = trajectory_steps(num_steps, n, spacing)
            assert len(traj) == n
            assert traj[0] == num_steps and traj[-1] == 1
            assert all(a > b for a, b in zip(traj, traj[1:]))

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_boundary_counts_near_num_steps(self, spacing):
        # n == T must walk every step; n == T - 1 must drop exactly one.
        assert trajectory_steps(20, 20, spacing) == list(range(20, 0, -1))
        assert len(trajectory_steps(20, 19, spacing)) == 19
        assert len(trajectory_steps(20, 21, spacing)) == 20  # clamps

    def test_rounding_would_collapse_nonuniform_spacings(self):
        # The regression the repair fixes: naive round-and-dedup loses steps.
        positions = 1.0 + 49.0 * np.linspace(0.0, 1.0, 20) ** 2
        naive = sorted(set(int(round(p)) for p in positions))
        assert len(naive) < 20  # quadratic spacing genuinely duplicates
        assert len(trajectory_steps(50, 20, "quadratic")) == 20

    def test_uniform_matches_the_legacy_rounding(self):
        for num_steps in (8, 20, 50):
            for n in range(2, num_steps + 1):
                legacy = sorted({int(round(s))
                                 for s in np.linspace(1, num_steps, n)},
                                reverse=True)
                if legacy[-1] != 1:
                    legacy.append(1)
                assert trajectory_steps(num_steps, n, "uniform") == legacy

    def test_nonuniform_spacings_concentrate_near_t1(self):
        uniform = trajectory_steps(50, 10, "uniform")
        quadratic = trajectory_steps(50, 10, "quadratic")
        karras = trajectory_steps(50, 10, "karras")
        assert sum(quadratic) < sum(uniform)
        assert sum(karras) < sum(quadratic)

    def test_spacing_validation(self):
        with pytest.raises(ValueError, match="spacing"):
            trajectory_steps(20, 5, "cubic")
        with pytest.raises(ValueError, match="spacing"):
            StridedReverseSampler(num_inference_steps=5, spacing="cubic")
        with pytest.raises(ValueError, match="literal steps"):
            StridedReverseSampler(stride=2, spacing="quadratic")

    def test_sampler_trajectories_follow_spacing(self):
        for cls in (StridedReverseSampler, DDIMSampler, PNDMSampler):
            sampler = cls(num_inference_steps=6, spacing="karras")
            assert sampler.trajectory(20) == trajectory_steps(20, 6, "karras")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestSamplerRegistry:
    def test_zoo_entries_registered(self):
        names = sampler_names()
        assert set(names) >= {"full", "strided", "ddim", "pndm"}
        for name in ("strided", "ddim", "pndm"):
            assert make_sampler(name, num_inference_steps=4).name == name
        assert make_sampler("full").name == "full"

    def test_unknown_sampler_error_lists_registry(self):
        with pytest.raises(KeyError, match="pndm"):
            make_sampler("warp")

    def test_help_mentions_every_sampler(self):
        text = sampler_help()
        for name in sampler_names():
            assert f"'{name}'" in text

    def test_unsupported_knob_is_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            make_sampler("strided", num_inference_steps=4, eta=0.5)
        with pytest.raises(ValueError, match="does not take"):
            make_sampler("full", num_inference_steps=4)

    def test_subsequence_samplers_need_a_step_budget(self):
        for name in ("strided", "ddim", "pndm"):
            with pytest.raises(ValueError, match="num_inference_steps"):
                make_sampler(name)

    def test_registration_extends_registry_config_and_factory(self):
        @register_sampler("turbo", "test-only sampler")
        class Turbo(StridedReverseSampler):
            name = "turbo"

        try:
            assert "turbo" in sampler_names()
            assert make_sampler("turbo", num_inference_steps=3).name == "turbo"
            # Config validation resolves against the live registry.
            config = ImDiffusionConfig(num_steps=8, sampler="turbo")
            assert config.build_sampler().name == "turbo"
        finally:
            del SAMPLER_REGISTRY["turbo"]

    def test_ddim_eta_validation(self):
        with pytest.raises(ValueError, match="eta"):
            DDIMSampler(num_inference_steps=4, eta=1.5)
        with pytest.raises(ValueError, match="eta"):
            DDIMSampler(num_inference_steps=4, eta=-0.1)


# ---------------------------------------------------------------------------
# Cached transition tables: jet-ddpm-style coefficient identities
# ---------------------------------------------------------------------------
class TestTransitionTables:
    def setup_method(self):
        self.schedule = make_schedule("quadratic", 20, beta_end=0.25)
        self.diffusion = GaussianDiffusion(self.schedule)

    def _table(self, n=6, eta=0.0, spacing="uniform"):
        trajectory = trajectory_steps(20, n, spacing)
        return self.diffusion.transition_table(trajectory, eta=eta)

    def test_x0_and_ddpm_coefficients_match_schedule(self):
        table = self._table()
        for i, t in enumerate(table.steps):
            alpha_bar = self.schedule.alpha_bars[t - 1]
            assert table.sqrt_alpha_bar[i] == np.sqrt(alpha_bar)
            assert table.sqrt_one_minus_alpha_bar[i] == np.sqrt(1.0 - alpha_bar)
            assert table.sqrt_alpha[i] == np.sqrt(self.schedule.alphas[t - 1])
            # p0/p1 of the eps-parameterised posterior mean (jet-ddpm's
            # calc_imu_eps_parts): mean = (x - beta/sqrt(1-abar) eps)/sqrt(a).
            assert table.ddpm_eps_coef[i] == \
                self.schedule.betas[t - 1] / np.sqrt(1.0 - alpha_bar)

    def test_ddpm_sigma_squares_to_posterior_variance(self):
        table = self._table()
        for i, t in enumerate(table.steps):
            assert table.ddpm_sigma[i] == \
                np.sqrt(self.schedule.posterior_variance(int(t)))

    def test_eta0_jump_coefficients(self):
        table = self._table(eta=0.0)
        for i, t_prev in enumerate(table.prev_steps[:-1]):
            alpha_bar_prev = self.schedule.alpha_bars[t_prev - 1]
            assert table.jump_x0_coef[i] == np.sqrt(alpha_bar_prev)
            assert table.jump_eps_coef[i] == np.sqrt(1.0 - alpha_bar_prev)
            assert table.jump_sigma[i] == 0.0

    def test_terminal_entry_lands_on_clean_data(self):
        table = self._table(eta=0.7)
        assert table.prev_steps[-1] == 0
        assert table.jump_x0_coef[-1] == 1.0
        assert table.jump_eps_coef[-1] == 0.0
        assert table.jump_sigma[-1] == 0.0

    def test_eta_jump_variance_identity(self):
        # sigma^2 + jump_eps^2 == 1 - abar_prev: the DDIM family preserves
        # the marginal q(x_prev | x0) for every eta.
        table = self._table(eta=0.7)
        for i, t_prev in enumerate(table.prev_steps[:-1]):
            alpha_bar_prev = self.schedule.alpha_bars[t_prev - 1]
            np.testing.assert_allclose(
                table.jump_sigma[i] ** 2 + table.jump_eps_coef[i] ** 2,
                1.0 - alpha_bar_prev, rtol=1e-12)

    def test_eta1_adjacent_jumps_recover_ddpm_variance(self):
        trajectory = list(range(20, 0, -1))
        table = self.diffusion.transition_table(trajectory, eta=1.0)
        for i, (t, t_prev) in enumerate(zip(table.steps, table.prev_steps)):
            if t_prev == t - 1 and t_prev >= 1:
                np.testing.assert_allclose(
                    table.jump_sigma[i] ** 2,
                    self.schedule.posterior_variance(int(t)), rtol=1e-10)

    def test_tables_are_cached_and_keyed(self):
        trajectory = trajectory_steps(20, 6)
        first = self.diffusion.transition_table(trajectory)
        assert self.diffusion.transition_table(tuple(trajectory)) is first
        assert self.diffusion.transition_table(trajectory, eta=0.5) is not first

    def test_cache_invalidates_when_schedule_is_replaced(self):
        trajectory = trajectory_steps(20, 6)
        first = self.diffusion.transition_table(trajectory)
        self.diffusion.schedule = make_schedule("linear", 20)
        second = self.diffusion.transition_table(trajectory)
        assert second is not first
        assert not np.array_equal(second.sqrt_alpha_bar, first.sqrt_alpha_bar)

    def test_pickle_drops_the_cache_but_rebuilds_identically(self):
        trajectory = trajectory_steps(20, 6)
        table = self.diffusion.transition_table(trajectory, eta=0.3)
        clone = pickle.loads(pickle.dumps(self.diffusion))
        assert clone._table_cache == {}
        rebuilt = clone.transition_table(trajectory, eta=0.3)
        for column in ("sqrt_alpha_bar", "sqrt_one_minus_alpha_bar",
                       "sqrt_alpha", "ddpm_eps_coef", "ddpm_sigma",
                       "jump_x0_coef", "jump_eps_coef", "jump_sigma"):
            np.testing.assert_array_equal(getattr(rebuilt, column),
                                          getattr(table, column))


# ---------------------------------------------------------------------------
# Cross-sampler equivalences (diffusers-style)
# ---------------------------------------------------------------------------
class TestCrossSamplerEquivalence:
    @pytest.mark.parametrize("collect", ["sample", "x0"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_eta0_ddim_is_bitwise_identical_to_strided(self, collect,
                                                       deterministic):
        imputer, windows, masks, policies = _tiny_imputer()
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        strided = imputer.impute(windows, masks, policies, rng_a,
                                 collect=collect, deterministic=deterministic,
                                 sampler=StridedReverseSampler(num_inference_steps=4))
        ddim = imputer.impute(windows, masks, policies, rng_b,
                              collect=collect, deterministic=deterministic,
                              sampler=DDIMSampler(num_inference_steps=4, eta=0.0))
        np.testing.assert_array_equal(ddim.final, strided.final)
        for (_, expected), (_, actual) in zip(strided.intermediate,
                                              ddim.intermediate):
            np.testing.assert_array_equal(actual, expected)
        # Identical random-stream consumption too.
        assert (rng_a.bit_generator.state == rng_b.bit_generator.state)

    def test_adjacent_only_ddim_is_bitwise_identical_to_full(self):
        imputer, windows, masks, policies = _tiny_imputer(num_steps=8)
        full = imputer.impute(windows, masks, policies,
                              np.random.default_rng(3),
                              sampler=FullReverseSampler())
        for sampler in (DDIMSampler(stride=1), DDIMSampler(num_inference_steps=8),
                        PNDMSampler(stride=1)):
            result = imputer.impute(windows, masks, policies,
                                    np.random.default_rng(3), sampler=sampler)
            if isinstance(sampler, PNDMSampler):
                # PNDM replaces the stochastic DDPM transition outright; it
                # must walk the same trajectory but is free to differ.
                assert result.steps() == full.steps()
                continue
            np.testing.assert_array_equal(result.final, full.final)

    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_stochastic_ddim_injected_noise_is_bit_identical(self, eta):
        imputer, windows, masks, policies = _tiny_imputer()
        sampler = DDIMSampler(num_inference_steps=4, eta=eta)
        draw_rng = np.random.default_rng(21)
        noise = imputer.draw_impute_noise(windows, draw_rng, sampler=sampler)
        # eta > 0 jumps must carry a transition draw (only t == 1 is free).
        trajectory = sampler.trajectory(imputer.diffusion.num_steps)
        for i, t in enumerate(trajectory):
            t_prev = trajectory[i + 1] if i + 1 < len(trajectory) else 0
            assert (noise.transition[i] is not None) == (t_prev >= 1)

        internal_rng = np.random.default_rng(21)
        internal = imputer.impute(windows, masks, policies, internal_rng,
                                  sampler=sampler)
        injected = imputer.impute(windows, masks, policies, rng=None,
                                  sampler=sampler, noise=noise)
        np.testing.assert_array_equal(injected.final, internal.final)
        assert (draw_rng.bit_generator.state
                == internal_rng.bit_generator.state)

    def test_stochastic_ddim_actually_varies_across_seeds(self):
        imputer, windows, masks, policies = _tiny_imputer()
        deterministic = DDIMSampler(num_inference_steps=4, eta=0.0)
        stochastic = DDIMSampler(num_inference_steps=4, eta=1.0)
        base = imputer.impute(windows, masks, policies,
                              np.random.default_rng(5), sampler=deterministic)
        noisy = imputer.impute(windows, masks, policies,
                               np.random.default_rng(5), sampler=stochastic)
        assert not np.array_equal(base.final, noisy.final)

    def test_pndm_consumes_no_transition_randomness(self):
        imputer, windows, masks, policies = _tiny_imputer()
        sampler = PNDMSampler(num_inference_steps=4)
        noise = imputer.draw_impute_noise(windows, np.random.default_rng(2),
                                          sampler=sampler)
        assert all(draw is None for draw in noise.transition)
        # Two passes from the same seed are identical: the eps history is
        # per-call state, never retained on the sampler object.
        first = imputer.impute(windows, masks, policies,
                               np.random.default_rng(6), sampler=sampler)
        second = imputer.impute(windows, masks, policies,
                                np.random.default_rng(6), sampler=sampler)
        np.testing.assert_array_equal(second.final, first.final)
        assert np.isfinite(first.final).all()

    def test_pndm_second_step_uses_the_eps_history(self):
        imputer, windows, masks, policies = _tiny_imputer()
        pndm = imputer.impute(windows, masks, policies,
                              np.random.default_rng(6),
                              sampler=PNDMSampler(num_inference_steps=4))
        ddim = imputer.impute(windows, masks, policies,
                              np.random.default_rng(6),
                              sampler=DDIMSampler(num_inference_steps=4))
        # First visited step has no history: identical estimate.
        np.testing.assert_array_equal(pndm.intermediate[0][1],
                                      ddim.intermediate[0][1])
        # From the second step on the Adams-Bashforth combination kicks in.
        assert not np.array_equal(pndm.intermediate[1][1],
                                  ddim.intermediate[1][1])

    def test_sampler_step_without_table_matches_table_path(self):
        imputer, windows, masks, policies = _tiny_imputer()
        diffusion = imputer.diffusion
        rng = np.random.default_rng(13)
        x_t = rng.standard_normal((3, 4, 20))
        eps = rng.standard_normal((3, 4, 20))
        for sampler in (StridedReverseSampler(num_inference_steps=4),
                        DDIMSampler(num_inference_steps=4, eta=0.6),
                        PNDMSampler(num_inference_steps=4),
                        FullReverseSampler()):
            table = sampler.transition_table(diffusion)
            for i, (t, t_prev) in enumerate(zip(table.steps, table.prev_steps)):
                z = np.random.default_rng(100 + t).standard_normal(x_t.shape)
                direct = sampler.step(diffusion, x_t, t, t_prev, eps,
                                      noise=z, state=sampler.init_state())
                tabled = sampler.step(diffusion, x_t, t, t_prev, eps,
                                      noise=z, table=table, index=i,
                                      state=sampler.init_state())
                np.testing.assert_array_equal(tabled, direct)


# ---------------------------------------------------------------------------
# Config round-trips and knob validation (diffusers check_over_configs)
# ---------------------------------------------------------------------------
ZOO_CONFIGS = [
    {"sampler": "full"},
    {"sampler": "strided", "num_inference_steps": 4},
    {"sampler": "strided", "num_inference_steps": 4, "stride_spacing": "quadratic"},
    {"sampler": "ddim", "num_inference_steps": 4},
    {"sampler": "ddim", "num_inference_steps": 4, "ddim_eta": 0.5},
    {"sampler": "ddim", "num_inference_steps": 4, "stride_spacing": "karras",
     "ddim_eta": 1.0},
    {"sampler": "pndm", "num_inference_steps": 4},
    {"sampler": "pndm", "num_inference_steps": 4, "stride_spacing": "quadratic"},
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("knobs", ZOO_CONFIGS,
                             ids=[str(sorted(k.items())) for k in ZOO_CONFIGS])
    def test_asdict_round_trip_preserves_sampler_and_trajectory(self, knobs):
        config = ImDiffusionConfig(num_steps=8, **knobs)
        restored = ImDiffusionConfig(**asdict(config))
        assert restored == config
        original_sampler = config.build_sampler()
        restored_sampler = restored.build_sampler()
        assert restored_sampler.name == original_sampler.name
        assert restored_sampler.eta == original_sampler.eta
        assert (restored_sampler.trajectory(config.num_steps)
                == original_sampler.trajectory(config.num_steps))

    def test_explicit_zoo_sampler_not_clobbered_by_step_count(self):
        for name in ("ddim", "pndm"):
            config = ImDiffusionConfig(num_steps=8, sampler=name,
                                       num_inference_steps=4)
            assert config.sampler == name
        # The historical implication is preserved for the default.
        assert ImDiffusionConfig(num_steps=8,
                                 num_inference_steps=4).sampler == "strided"

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="ddim_eta"):
            ImDiffusionConfig(ddim_eta=1.5)
        with pytest.raises(ValueError, match="ddim_eta"):
            ImDiffusionConfig(sampler="strided", num_inference_steps=4,
                              num_steps=8, ddim_eta=0.5)
        with pytest.raises(ValueError, match="stride_spacing"):
            ImDiffusionConfig(stride_spacing="cubic")
        with pytest.raises(ValueError, match="subsequence"):
            ImDiffusionConfig(stride_spacing="quadratic")  # full sampler

    def test_zoo_defaults_to_quarter_trajectory(self):
        for name in ("ddim", "pndm"):
            config = ImDiffusionConfig(num_steps=20, sampler=name)
            assert config.inference_steps == 5

    def test_checkpoint_round_trip_preserves_zoo_knobs(self):
        detector, series = _fitted_detector(
            sampler="ddim", num_inference_steps=3, ddim_eta=0.5,
            stride_spacing="quadratic")
        arrays, metadata = detector.to_checkpoint()
        restored = ImDiffusionDetector.from_checkpoint(arrays, metadata)
        assert restored.config.sampler == "ddim"
        assert restored.config.ddim_eta == 0.5
        assert restored.config.stride_spacing == "quadratic"
        np.testing.assert_array_equal(
            restored.score(series)[3], detector.score(series)[3])


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLISamplerZoo:
    def test_sampler_choices_follow_the_registry(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["detect", "--sampler", "ddim", "--ddim-eta", "0.5",
             "--num-inference-steps", "4", "--stride-spacing", "karras"])
        assert args.sampler == "ddim"
        assert args.ddim_eta == 0.5
        assert args.stride_spacing == "karras"

    def test_help_lists_zoo_samplers(self):
        from repro.cli import build_parser

        detect = next(
            action for action in build_parser()._subparsers._group_actions[0]
            ._choices_actions if action.dest == "detect")
        # The registered names appear in the rendered subparser help.
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, type(parser._actions[-1]))
                          and hasattr(a, "choices") and "detect" in (a.choices or {}))
        help_text = subparsers.choices["detect"].format_help()
        for name in sampler_names():
            assert name in help_text

    def test_engine_overrides_carry_zoo_knobs(self):
        import argparse

        from repro.cli import _engine_overrides

        args = argparse.Namespace(sampler="ddim", num_inference_steps=4,
                                  ddim_eta=0.5, stride_spacing="quadratic")
        overrides = _engine_overrides(args)
        assert overrides == {"sampler": "ddim", "num_inference_steps": 4,
                             "ddim_eta": 0.5, "stride_spacing": "quadratic"}

    def test_full_override_clears_zoo_knobs(self):
        import argparse

        from repro.cli import _engine_overrides

        args = argparse.Namespace(sampler="full", num_inference_steps=None,
                                  ddim_eta=None, stride_spacing=None)
        overrides = _engine_overrides(args)
        assert overrides == {"sampler": "full", "num_inference_steps": None,
                             "ddim_eta": 0.0, "stride_spacing": "uniform"}


# ---------------------------------------------------------------------------
# Worker-count bit-identity for every new sampler
# ---------------------------------------------------------------------------
WORKER_SAMPLER_KNOBS = [
    {"sampler": "ddim", "num_inference_steps": 4, "ddim_eta": 0.5},
    {"sampler": "pndm", "num_inference_steps": 4},
    {"sampler": "strided", "num_inference_steps": 4,
     "stride_spacing": "quadratic"},
]


@pytest.fixture(scope="module")
def zoo_fitted():
    return _fitted_detector()


class TestWorkerCountBitIdentity:
    @pytest.mark.parametrize("knobs", WORKER_SAMPLER_KNOBS,
                             ids=[k["sampler"] for k in WORKER_SAMPLER_KNOBS])
    def test_scores_labels_and_rng_invariant_across_worker_counts(
            self, zoo_fitted, knobs):
        fitted, series = zoo_fitted
        serial_det = copy.deepcopy(fitted)
        serial_det.config = serial_det.config.with_overrides(**knobs)
        serial = serial_det.predict(series)
        for workers in (1, 2, 4):
            pooled_det = copy.deepcopy(fitted)
            pooled_det.config = pooled_det.config.with_overrides(**knobs)
            pooled = pooled_det.predict(series, score_workers=workers)
            assert np.array_equal(serial.scores, pooled.scores), workers
            assert np.array_equal(serial.labels, pooled.labels), workers
            for progress in serial.step_errors:
                assert np.array_equal(serial.step_errors[progress],
                                      pooled.step_errors[progress]), workers
            assert (serial_det._rng.bit_generator.state
                    == pooled_det._rng.bit_generator.state), workers


# ---------------------------------------------------------------------------
# Variance-reduced validation: CRN + antithetic variates
# ---------------------------------------------------------------------------
class TestAntitheticValidation:
    def test_crn_rng_is_deterministic_and_offset(self):
        a = crn_validation_rng(0).standard_normal(4)
        b = crn_validation_rng(0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, np.random.default_rng(0).standard_normal(4))

    def test_antithetic_loss_averages_the_pair(self):
        calls = []

        def loss_fn(steps, noise):
            calls.append(noise.copy())
            return float(noise.sum() ** 2 + 1.0)

        steps = np.array([3, 5])
        noise = np.array([1.0, 2.0])
        value = antithetic_loss(loss_fn, steps, noise)
        assert value == 0.5 * (loss_fn(steps, noise) + loss_fn(steps, -noise))
        np.testing.assert_array_equal(calls[0], noise)
        np.testing.assert_array_equal(calls[1], -noise)

    def test_antithetic_validation_trains_and_records_losses(self):
        detector, _ = _fitted_detector(validation_fraction=0.25, epochs=2,
                                       validation_antithetic=True)
        assert len(detector.val_losses) == 2
        assert all(np.isfinite(v) for v in detector.val_losses)

    def test_flag_off_and_on_share_the_training_stream(self):
        plain, _ = _fitted_detector(validation_fraction=0.25, epochs=2)
        antithetic, _ = _fitted_detector(validation_fraction=0.25, epochs=2,
                                         validation_antithetic=True)
        # Validation uses a dedicated CRN generator either way, so the
        # gradient path is bit-identical...
        assert antithetic.train_losses == plain.train_losses
        # ...while the monitored estimate itself changes (pair-averaged).
        assert antithetic.val_losses != plain.val_losses

    def test_config_round_trips_the_flag(self):
        config = ImDiffusionConfig(validation_fraction=0.25,
                                   validation_antithetic=True)
        assert ImDiffusionConfig(**asdict(config)).validation_antithetic
