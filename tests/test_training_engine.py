"""Tests for the unified training engine (Trainer, callbacks, WindowLoader).

The centrepiece is the frozen-loop regression: ``_legacy_fit`` below is the
pre-refactor ``ImDiffusionDetector.fit`` epoch loop, copied verbatim, and the
migrated Trainer-based ``fit`` must produce bit-identical parameters and loss
curve for a fixed seed — the same technique PR 2 used to pin the sampler
refactor to the paper loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.core.modes import recommended_stride
from repro.data.windows import sliding_windows
from repro.nn import Adam, CosineLR, Linear, StepLR, Tensor, clip_grad_norm
from repro.nn import functional as F
from repro.nn.serialization import load_checkpoint
from repro.training import (
    Batch,
    Callback,
    Checkpoint,
    EarlyStopping,
    LossHistory,
    LRSchedule,
    Trainer,
    WindowLoader,
)


def _series(length=200, num_channels=4, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 32)[:, None] * np.ones((1, num_channels))
    return base + 0.1 * rng.standard_normal((length, num_channels))


def _small_config(**overrides):
    defaults = dict(window_size=16, num_steps=6, epochs=3, hidden_dim=8,
                    num_blocks=1, num_heads=2, batch_size=4,
                    num_masked_windows=2, num_unmasked_windows=2,
                    max_train_windows=16, train_stride=8, seed=0)
    defaults.update(overrides)
    return ImDiffusionConfig(**defaults)


# ---------------------------------------------------------------------------
# Frozen pre-refactor ImDiffusion training loop (verbatim copy)
# ---------------------------------------------------------------------------
def _legacy_fit(detector: ImDiffusionDetector, train: np.ndarray) -> ImDiffusionDetector:
    """The seed-era ``fit`` body, frozen: hand-rolled epochs + per-batch stack."""
    config = detector.config
    train = np.asarray(train, dtype=np.float64)
    detector._num_features = train.shape[1]
    scaled = detector._scaler.fit_transform(train)
    train_stride = config.train_stride or recommended_stride(config)
    windows, _ = sliding_windows(scaled, config.window_size, train_stride)

    if config.max_train_windows is not None and windows.shape[0] > config.max_train_windows:
        chosen = detector._rng.choice(windows.shape[0], size=config.max_train_windows,
                                      replace=False)
        windows = windows[chosen]

    masks = detector._build_network(detector._num_features)
    model = detector._imputer.model

    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    num_windows = windows.shape[0]
    detector.train_losses = []
    for _ in range(config.epochs):
        order = detector._rng.permutation(num_windows)
        epoch_losses = []
        for start in range(0, num_windows, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            batch = windows[batch_idx]
            policies = detector._rng.integers(0, len(masks), size=batch.shape[0])
            batch_masks = np.stack([masks[p] for p in policies])
            optimizer.zero_grad()
            loss = detector._imputer.training_loss(batch, batch_masks, policies,
                                                   detector._rng)
            loss.backward()
            clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            epoch_losses.append(float(loss.data))
        detector.train_losses.append(float(np.mean(epoch_losses)))
    return detector


class TestLegacyLoopBitIdentity:
    def test_migrated_fit_matches_frozen_loop(self):
        series = _series()
        migrated = ImDiffusionDetector(_small_config()).fit(series)
        legacy = _legacy_fit(ImDiffusionDetector(_small_config()), series)

        assert migrated.train_losses == legacy.train_losses
        new_state = migrated.model.state_dict()
        old_state = legacy.model.state_dict()
        assert set(new_state) == set(old_state)
        for name in new_state:
            np.testing.assert_array_equal(new_state[name], old_state[name])

    def test_rng_stream_position_matches(self):
        # Post-training predictions must agree too: the random stream has to
        # end up at the same position, not just the weights.
        series = _series()
        migrated = ImDiffusionDetector(_small_config(deterministic_inference=True,
                                                     collect="x0")).fit(series)
        legacy_detector = ImDiffusionDetector(_small_config(deterministic_inference=True,
                                                            collect="x0"))
        legacy = _legacy_fit(legacy_detector, series)
        test = _series(length=80, seed=3)
        new_scores = migrated.score(test)
        old_scores = legacy.score(test)
        for step in new_scores:
            np.testing.assert_array_equal(new_scores[step], old_scores[step])


# ---------------------------------------------------------------------------
# WindowLoader
# ---------------------------------------------------------------------------
class TestWindowLoader:
    def test_batches_cover_every_sample_once(self):
        data = np.arange(22, dtype=np.float64).reshape(11, 2)
        loader = WindowLoader(data, batch_size=4, rng=np.random.default_rng(0))
        seen = np.concatenate([batch.indices for batch in loader])
        assert sorted(seen.tolist()) == list(range(11))
        assert len(loader) == 3

    def test_multiple_aligned_arrays(self):
        inputs = np.arange(30, dtype=np.float64).reshape(10, 3)
        targets = np.arange(10, dtype=np.float64)
        loader = WindowLoader(inputs, targets, batch_size=4,
                              rng=np.random.default_rng(0))
        for batch in loader:
            batch_inputs, batch_targets = batch
            np.testing.assert_array_equal(batch_inputs[:, 0] / 3, batch_targets)

    def test_shuffle_matches_legacy_permutation_stream(self):
        data = np.arange(9, dtype=np.float64)[:, None]
        loader_rng = np.random.default_rng(42)
        legacy_rng = np.random.default_rng(42)
        loader = WindowLoader(data, batch_size=2, rng=loader_rng)
        for _ in range(2):  # two epochs
            batches = [batch.indices for batch in loader]
            order = legacy_rng.permutation(9)
            expected = [order[s:s + 2] for s in range(0, 9, 2)]
            for actual, exp in zip(batches, expected):
                np.testing.assert_array_equal(actual, exp)

    def test_no_shuffle_walks_in_order(self):
        data = np.arange(5, dtype=np.float64)[:, None]
        loader = WindowLoader(data, batch_size=2, shuffle=False)
        seen = np.concatenate([batch.indices for batch in loader])
        np.testing.assert_array_equal(seen, np.arange(5))

    def test_validation(self):
        data = np.zeros((4, 2))
        with pytest.raises(ValueError):
            WindowLoader(data, np.zeros(3), batch_size=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            WindowLoader(data, batch_size=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            WindowLoader(data, batch_size=2)  # shuffle without rng
        with pytest.raises(ValueError):
            WindowLoader(batch_size=2)


# ---------------------------------------------------------------------------
# Trainer basics on a tiny least-squares problem
# ---------------------------------------------------------------------------
def _toy_problem(seed=0, num_samples=64, noise=0.0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((num_samples, 3))
    true_w = np.array([[1.0], [-2.0], [0.5]])
    targets = inputs @ true_w + noise * rng.standard_normal((num_samples, 1))
    return inputs, targets


def _toy_trainer(seed=0, lr=0.05, callbacks=(), noise=0.0, grad_clip=None):
    rng = np.random.default_rng(seed)
    model = Linear(3, 1, rng=rng)
    inputs, targets = _toy_problem(seed, noise=noise)
    loader = WindowLoader(inputs, targets, batch_size=16, rng=rng)
    optimizer = Adam(model.parameters(), lr=lr)

    def loss_fn(batch, state):
        batch_inputs, batch_targets = batch
        return F.mse_loss(model(Tensor(batch_inputs)), Tensor(batch_targets))

    trainer = Trainer(model.parameters(), optimizer, loss_fn,
                      grad_clip=grad_clip, callbacks=list(callbacks), rng=rng)
    return trainer, loader, model, optimizer


class TestTrainer:
    def test_loss_decreases(self):
        trainer, loader, _, _ = _toy_trainer()
        result = trainer.fit(loader, epochs=20)
        assert result.epochs_run == 20
        assert not result.stopped_early
        assert result.epoch_losses[-1] < result.epoch_losses[0] * 0.1
        assert result.wall_seconds > 0
        assert result.final_loss == result.epoch_losses[-1]

    def test_hook_order_and_counts(self):
        events = []

        class Recorder(Callback):
            def on_train_start(self, trainer, state):
                events.append("train_start")

            def on_epoch_start(self, trainer, state):
                events.append("epoch_start")

            def on_batch_end(self, trainer, state):
                events.append("batch_end")

            def on_epoch_end(self, trainer, state):
                events.append("epoch_end")

            def on_train_end(self, trainer, state):
                events.append("train_end")

        trainer, loader, _, _ = _toy_trainer(callbacks=[Recorder()])
        trainer.fit(loader, epochs=2)
        batches = len(loader)
        expected = (["train_start"]
                    + (["epoch_start"] + ["batch_end"] * batches + ["epoch_end"]) * 2
                    + ["train_end"])
        assert events == expected

    def test_loss_history_callback(self):
        history = LossHistory(record_batches=True)
        trainer, loader, _, _ = _toy_trainer(callbacks=[history])
        result = trainer.fit(loader, epochs=3)
        assert history.epoch_losses == result.epoch_losses
        assert len(history.batch_losses) == 3 * len(loader)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            rng = np.random.default_rng(0)
            model = Linear(2, 1, rng=rng)
            Trainer([], Adam(model.parameters(), lr=0.1), lambda b, s: None)


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------
class TestEarlyStopping:
    def test_stops_at_patience_on_plateau(self):
        # min_delta so large every epoch counts as non-improving after the first.
        stopper = EarlyStopping(patience=2, min_delta=1e9, restore_best=False)
        trainer, loader, _, _ = _toy_trainer(callbacks=[stopper])
        result = trainer.fit(loader, epochs=50)
        assert result.stopped_early
        assert result.epochs_run == 3  # best at epoch 0, then patience=2 misses
        assert "early stop" in result.stop_reason

    def test_restores_best_weights(self):
        stopper = EarlyStopping(patience=1, min_delta=1e9, restore_best=True)
        trainer, loader, model, _ = _toy_trainer(callbacks=[stopper])
        trainer.fit(loader, epochs=10)
        # Re-run without early stopping for one epoch to capture the epoch-0
        # weights the stopper should have restored.
        trainer2, loader2, model2, _ = _toy_trainer()
        trainer2.fit(loader2, epochs=1)
        for p, q in zip(model.parameters(), model2.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_improving_run_never_stops(self):
        stopper = EarlyStopping(patience=2)
        trainer, loader, _, _ = _toy_trainer(callbacks=[stopper])
        result = trainer.fit(loader, epochs=10)
        assert not result.stopped_early
        assert result.epochs_run == 10

    def test_custom_monitor(self):
        values = iter([5.0, 4.0, 4.0, 4.0, 4.0])
        stopper = EarlyStopping(patience=2, restore_best=False,
                                monitor=lambda t, s: next(values))
        trainer, loader, _, _ = _toy_trainer(callbacks=[stopper])
        result = trainer.fit(loader, epochs=5)
        assert result.stopped_early
        assert result.epochs_run == 4

    def test_detector_early_stopping_config(self):
        # The knob wires through ImDiffusionConfig and shortens training.
        series = _series()
        config = _small_config(epochs=10, early_stopping_patience=1,
                               early_stopping_min_delta=1e9)
        detector = ImDiffusionDetector(config).fit(series)
        assert detector.last_train_result.stopped_early
        assert detector.last_train_result.epochs_run == 2
        assert len(detector.train_losses) == 2
        assert np.isfinite(detector.last_train_result.final_loss)

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


# ---------------------------------------------------------------------------
# LR schedules
# ---------------------------------------------------------------------------
class TestLRSchedules:
    def test_cosine_boundaries(self):
        rng = np.random.default_rng(0)
        model = Linear(2, 1, rng=rng)
        optimizer = Adam(model.parameters(), lr=1.0)
        schedule = CosineLR(optimizer, total_epochs=11, warmup_epochs=3, min_lr=0.1)
        # Step 0: first warmup epoch at base_lr / warmup_epochs.
        assert optimizer.lr == pytest.approx(1.0 / 3.0)
        rates = [optimizer.lr]
        for _ in range(10):
            schedule.step()
            rates.append(optimizer.lr)
        # Warmup end (epoch 3): exactly the base rate.
        assert rates[3] == pytest.approx(1.0)
        # Final step: exactly min_lr.
        assert rates[10] == pytest.approx(0.1)
        # Midpoint of the cosine segment: average of base and min.
        assert rates[3 + (10 - 3) // 2 + 1] < rates[3]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(rates[3:], rates[4:]))

    def test_cosine_without_warmup(self):
        rng = np.random.default_rng(0)
        optimizer = Adam(Linear(2, 1, rng=rng).parameters(), lr=2.0)
        schedule = CosineLR(optimizer, total_epochs=5)
        assert optimizer.lr == pytest.approx(2.0)  # step 0 = base rate
        for _ in range(4):
            schedule.step()
        assert optimizer.lr == pytest.approx(0.0)  # final step = min_lr (default 0)
        schedule.step()  # stepping past the end clamps, never goes negative
        assert optimizer.lr == pytest.approx(0.0)

    def test_cosine_single_epoch_and_validation(self):
        rng = np.random.default_rng(0)
        optimizer = Adam(Linear(2, 1, rng=rng).parameters(), lr=1.0)
        CosineLR(optimizer, total_epochs=1)
        assert optimizer.lr == pytest.approx(1.0)
        with pytest.raises(ValueError):
            CosineLR(optimizer, total_epochs=0)
        with pytest.raises(ValueError):
            CosineLR(optimizer, total_epochs=3, warmup_epochs=3)
        with pytest.raises(ValueError):
            CosineLR(optimizer, total_epochs=3, min_lr=-0.1)

    def test_lr_schedule_callback_steps_per_epoch(self):
        trainer, loader, _, optimizer = _toy_trainer(lr=1.0)
        schedule = CosineLR(optimizer, total_epochs=4, min_lr=0.0)
        trainer.callbacks.append(LRSchedule(schedule))
        trainer.fit(loader, epochs=4)
        assert optimizer.lr == pytest.approx(0.0)

    def test_detector_lr_schedule_config(self):
        series = _series()
        config = _small_config(epochs=4, lr_schedule="cosine", lr_warmup_epochs=1)
        detector = ImDiffusionDetector(config).fit(series)
        assert len(detector.train_losses) == 4
        with pytest.raises(ValueError):
            _small_config(lr_schedule="nonsense")
        with pytest.raises(ValueError):
            _small_config(epochs=3, lr_warmup_epochs=3)


# ---------------------------------------------------------------------------
# Checkpoint / resume determinism
# ---------------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        path = str(tmp_path / "trainer.ckpt.npz")

        # Uninterrupted run: N + M = 6 epochs.
        full_trainer, full_loader, full_model, _ = _toy_trainer(noise=0.1)
        full_trainer.fit(full_loader, epochs=6)

        # Interrupted run: 3 epochs, checkpoint, fresh trainer, resume to 6.
        part_trainer, part_loader, _, _ = _toy_trainer(
            noise=0.1, callbacks=[Checkpoint(path)])
        part_trainer.fit(part_loader, epochs=3)

        resumed_trainer, resumed_loader, resumed_model, _ = _toy_trainer(
            noise=0.1, callbacks=[Checkpoint(path)])
        arrays, metadata = load_checkpoint(path)
        resumed_trainer.load_state_dict(arrays, metadata)
        assert resumed_trainer.state.epoch == 3
        result = resumed_trainer.fit(resumed_loader, epochs=6)

        assert result.epochs_run == 6
        assert len(result.epoch_losses) == 6
        for p, q in zip(resumed_model.parameters(), full_model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        # The loss curves agree too (epochs 4..6 recomputed after resume).
        full_losses = full_trainer.state.epoch_losses
        np.testing.assert_array_equal(result.epoch_losses, full_losses)

    def test_periodic_and_best_snapshots(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        checkpoint = Checkpoint(path, every=2, save_best=True)
        trainer, loader, _, _ = _toy_trainer(callbacks=[checkpoint])
        trainer.fit(loader, epochs=5)
        arrays, metadata = load_checkpoint(path)
        assert metadata["epoch"] == 5  # final on_train_end snapshot
        best_arrays, best_metadata = load_checkpoint(checkpoint.best_path)
        assert best_metadata["epoch"] <= 5
        assert set(arrays) == set(best_arrays)

    def test_final_snapshot_holds_post_restore_weights(self, tmp_path):
        # EarlyStopping restores the best epoch at train end; the trailing
        # Checkpoint must rewrite so disk matches the in-memory model even
        # when the stopping epoch coincided with a periodic save (every=1).
        path = str(tmp_path / "ck.npz")
        stopper = EarlyStopping(patience=1, min_delta=1e9, restore_best=True)
        trainer, loader, model, _ = _toy_trainer(
            callbacks=[stopper, Checkpoint(path, every=1)])
        result = trainer.fit(loader, epochs=10)
        assert result.stopped_early
        arrays, _ = load_checkpoint(path)
        for index, p in enumerate(model.parameters()):
            np.testing.assert_array_equal(arrays[f"param.{index}"], p.data)

    def test_load_rejects_mismatched_shapes(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        trainer, loader, _, _ = _toy_trainer(callbacks=[Checkpoint(path)])
        trainer.fit(loader, epochs=1)
        arrays, metadata = load_checkpoint(path)

        rng = np.random.default_rng(0)
        other_model = Linear(5, 1, rng=rng)
        other = Trainer(other_model.parameters(),
                        Adam(other_model.parameters(), lr=0.1),
                        lambda b, s: None, rng=rng)
        with pytest.raises((ValueError, KeyError)):
            other.load_state_dict(arrays, metadata)

    def test_load_rejects_unknown_version(self, tmp_path):
        trainer, loader, _, _ = _toy_trainer()
        arrays, metadata = trainer.state_dict()
        metadata["format_version"] = 99
        with pytest.raises(ValueError):
            trainer.load_state_dict(arrays, metadata)

    def test_detector_checkpoint_callback(self, tmp_path):
        # Checkpoint plugs into ImDiffusionDetector.fit via the callbacks arg.
        path = str(tmp_path / "detector-train.npz")
        series = _series()
        detector = ImDiffusionDetector(_small_config())
        detector.fit(series, callbacks=[Checkpoint(path, every=1)])
        arrays, metadata = load_checkpoint(path)
        assert metadata["epoch"] == detector.config.epochs
        assert metadata["rng_state"] is not None
        num_params = len(detector.model.parameters())
        assert sum(1 for k in arrays if k.startswith("param.")) == num_params


# ---------------------------------------------------------------------------
# Optimizer state round-trips (the pieces resume determinism rests on)
# ---------------------------------------------------------------------------
class TestOptimizerState:
    def test_adam_state_round_trip(self):
        rng = np.random.default_rng(0)
        model = Linear(3, 2, rng=rng)
        optimizer = Adam(model.parameters(), lr=0.01)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        optimizer.step()
        scalars, arrays = optimizer.state_dict()

        model2 = Linear(3, 2, rng=np.random.default_rng(0))
        optimizer2 = Adam(model2.parameters(), lr=0.5)
        optimizer2.load_state_dict(scalars, arrays)
        assert optimizer2.lr == optimizer.lr
        assert optimizer2._step_count == 1
        for p, q in zip(model.parameters(), model2.parameters()):
            q.grad = np.ones_like(q.data)
            p.grad = np.ones_like(p.data)
        optimizer.step()
        optimizer2.step()
        np.testing.assert_array_equal(
            optimizer._m[id(model.parameters()[0])],
            optimizer2._m[id(model2.parameters()[0])])

    def test_step_lr_state_round_trip(self):
        rng = np.random.default_rng(0)
        optimizer = Adam(Linear(2, 1, rng=rng).parameters(), lr=1.0)
        schedule = StepLR(optimizer, step_size=2, gamma=0.5)
        schedule.step()
        schedule.step()
        state = schedule.state_dict()

        optimizer2 = Adam(Linear(2, 1, rng=np.random.default_rng(0)).parameters(), lr=1.0)
        schedule2 = StepLR(optimizer2, step_size=2, gamma=0.5)
        schedule2.load_state_dict(state)
        assert optimizer2.lr == optimizer.lr == 0.5
        schedule.step()
        schedule.step()
        schedule2.step()
        schedule2.step()
        assert optimizer2.lr == optimizer.lr == 0.25
