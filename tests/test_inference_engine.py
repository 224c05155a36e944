"""Sharded inference engine: determinism, transport, wiring, cleanup.

The contract under test mirrors the data-parallel training engine:

* all randomness is drawn in the parent, in plan order, so
  ``draw_impute_noise`` + noise-injected ``impute`` is **bit-identical** to
  the internal-rng path (including the generator's end state),
* :class:`SerialScoreReducer` reproduces the pre-engine inline scoring loop
  bit for bit, and :class:`MultiprocessScoreReducer` reproduces the serial
  reducer for **every** worker count (1-worker = the bit-identity gate),
* ``ImDiffusionDetector.score`` and ``holdout_error`` run only through the
  reducers; frozen copies of the inline loops they replaced stay here as the
  reference (step errors, labels, holdout values and generator state),
* parameters cross to the workers through the shared-memory transport, so
  per-step pipe messages do not scale with the parameter count (gradient
  and scoring reducers alike),
* ``close()`` is idempotent everywhere and the atexit cleanup registry
  reaps leaked pools/blocks without resource-tracker warnings,
* a dead worker raises one ``RuntimeError`` naming it, in both jobs, and
  closes its pool.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.core.detector import ImputationLossSpec, ImputationScoreSpec
from repro.core.modes import build_masks, recommended_stride
from repro.data.windows import sliding_windows
from repro.diffusion import ImputeNoise
from repro.inference import (
    MultiprocessScoreReducer,
    ScoreTask,
    SerialScoreReducer,
    WorkerPool,
)
from repro.nn import Adam
from repro.serving import DetectorService, ServingConfig
from repro.training import MultiprocessReducer, ParallelTrainer
from repro.training.parallel import _shard_bounds
from repro.training.trainer import Batch, TrainState


def _config(**overrides):
    base = dict(window_size=16, num_steps=4, epochs=1, hidden_dim=8,
                num_blocks=1, num_heads=2, batch_size=4,
                num_masked_windows=2, num_unmasked_windows=2,
                max_train_windows=16, train_stride=8, seed=0)
    base.update(overrides)
    return ImDiffusionConfig(**base)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    train = rng.standard_normal((120, 3))
    return ImDiffusionDetector(_config()).fit(train)


@pytest.fixture(scope="module")
def test_series():
    return np.random.default_rng(1).standard_normal((64, 3))


def _windows(fitted, count=10, seed=5):
    config = fitted.config
    return np.random.default_rng(seed).standard_normal(
        (count, config.window_size, fitted.num_features))


# ---------------------------------------------------------------------------
# Frozen pre-reducer detector loops (verbatim copies, the references)
# ---------------------------------------------------------------------------
def _legacy_window_errors(detector, chunk, mask, policy_index, rng, sampler):
    """The inline per-chunk imputation: noise drawn on the live generator."""
    config = detector.config
    target_region = 1.0 - mask
    batch_masks = np.broadcast_to(mask, chunk.shape)
    policies = np.full(chunk.shape[0], policy_index, dtype=np.int64)
    result = detector._imputer.impute(
        chunk, batch_masks, policies, rng,
        collect=config.collect,
        deterministic=config.deterministic_inference,
        sampler=sampler,
    )
    for progress, (_, estimate) in enumerate(result.intermediate, start=1):
        yield progress, ((estimate - chunk) ** 2) * target_region


def _legacy_score(detector, test):
    """The ``score_workers=1`` inline loop of ``ImDiffusionDetector.score``."""
    config = detector.config
    scaled = detector._scaler.transform(np.asarray(test, dtype=np.float64))
    windows, starts = sliding_windows(scaled, config.window_size,
                                      recommended_stride(config))
    masks = build_masks(config, config.window_size, detector.num_features)
    length = scaled.shape[0]
    window = config.window_size
    sampler = config.build_sampler()
    num_collected = sampler.num_inference_steps(config.num_steps)
    error_sum = {k: np.zeros((length, detector.num_features))
                 for k in range(1, num_collected + 1)}
    masked_count = np.zeros((length, detector.num_features))
    detector._imputer.model.eval()
    for policy_index, mask in enumerate(masks):
        target_region = 1.0 - mask
        for chunk_start in range(0, windows.shape[0], config.batch_size):
            chunk = windows[chunk_start:chunk_start + config.batch_size]
            chunk_starts = starts[chunk_start:chunk_start + config.batch_size]
            for progress, squared in _legacy_window_errors(
                    detector, chunk, mask, policy_index, detector._rng, sampler):
                for window_error, start in zip(squared, chunk_starts):
                    error_sum[progress][start:start + window] += window_error
            for start in chunk_starts:
                masked_count[start:start + window] += target_region
    coverage = np.maximum(masked_count.sum(axis=1), 1.0)
    return {progress: totals.sum(axis=1) / coverage
            for progress, totals in error_sum.items()}


def _legacy_holdout_error(detector, series, seed):
    """The inline loop of ``ImDiffusionDetector.holdout_error``."""
    config = detector.config
    scaled = detector._scaler.transform(np.asarray(series, dtype=np.float64))
    windows, _ = sliding_windows(scaled, config.window_size,
                                 recommended_stride(config))
    masks = build_masks(config, config.window_size, detector.num_features)
    sampler = config.build_sampler()
    rng = np.random.default_rng(seed)
    detector._imputer.model.eval()
    total, count = 0.0, 0.0
    for policy_index, mask in enumerate(masks):
        target_elements = float((1.0 - mask).sum())
        for chunk_start in range(0, windows.shape[0], config.batch_size):
            chunk = windows[chunk_start:chunk_start + config.batch_size]
            final = None
            for _, squared in _legacy_window_errors(
                    detector, chunk, mask, policy_index, rng, sampler):
                final = squared
            total += float(final.sum())
            count += target_elements * chunk.shape[0]
    return total / max(count, 1.0)


#: Stochastic (full, eta > 0 DDIM) and history-carrying (PNDM) trajectories.
SAMPLERS = {
    "full": {},
    "ddim": dict(sampler="ddim", num_inference_steps=2, ddim_eta=0.5),
    "pndm": dict(sampler="pndm", num_inference_steps=3),
}


def _with_sampler(fitted, name):
    detector = copy.deepcopy(fitted)
    detector.config = dataclasses.replace(detector.config, **SAMPLERS[name])
    return detector


class ExplodingSpec(ImputationScoreSpec):
    """Module-level (spawn needs to pickle it) spec whose kernel always fails."""

    def compute(self, windows, task, payload):
        raise ValueError("boom in the worker")


class UnbuildableSpec(ImputationScoreSpec):
    """A spec whose worker-side replica cannot be built."""

    def build(self):
        raise ValueError("no replica here")


# ---------------------------------------------------------------------------
# Parent-side noise drawing: draw o impute == internal-rng impute
# ---------------------------------------------------------------------------
class TestDrawImputeNoise:
    def _run_both(self, fitted, deterministic=False):
        config = fitted.config
        imputer = fitted._imputer
        sampler = config.build_sampler()
        mask = build_masks(config, config.window_size, fitted.num_features)[0]
        windows = _windows(fitted, count=3)
        batch_masks = np.broadcast_to(mask, windows.shape)
        policies = np.zeros(windows.shape[0], dtype=np.int64)

        rng_internal = np.random.default_rng(99)
        internal = imputer.impute(windows, batch_masks, policies, rng_internal,
                                  sampler=sampler, deterministic=deterministic)

        rng_injected = np.random.default_rng(99)
        noise = imputer.draw_impute_noise(windows, rng_injected,
                                          sampler=sampler,
                                          deterministic=deterministic)
        injected = imputer.impute(windows, batch_masks, policies, rng=None,
                                  sampler=sampler, deterministic=deterministic,
                                  noise=noise)
        return internal, injected, rng_internal, rng_injected

    def test_injected_noise_is_bit_identical(self, fitted):
        internal, injected, rng_a, rng_b = self._run_both(fitted)
        assert np.array_equal(internal.final, injected.final)
        for (step_a, est_a), (step_b, est_b) in zip(internal.intermediate,
                                                    injected.intermediate):
            assert step_a == step_b
            assert np.array_equal(est_a, est_b)
        # The parent-side draw consumed the stream exactly as impute would.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_deterministic_trajectory_matches_too(self, fitted):
        internal, injected, rng_a, rng_b = self._run_both(fitted,
                                                          deterministic=True)
        assert np.array_equal(internal.final, injected.final)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_impute_requires_rng_or_noise(self, fitted):
        config = fitted.config
        mask = build_masks(config, config.window_size, fitted.num_features)[0]
        windows = _windows(fitted, count=2)
        with pytest.raises(ValueError, match="rng"):
            fitted._imputer.impute(
                windows, np.broadcast_to(mask, windows.shape),
                np.zeros(2, dtype=np.int64), rng=None)

    def test_shard_slices_every_component(self, fitted):
        imputer = fitted._imputer
        sampler = fitted.config.build_sampler()
        windows = _windows(fitted, count=6)
        noise = imputer.draw_impute_noise(windows, np.random.default_rng(3),
                                          sampler=sampler)
        part = noise.shard(2, 5)
        assert isinstance(part, ImputeNoise)
        assert part.batch_size == 3
        assert np.array_equal(part.prior, noise.prior[2:5])
        for full, sliced in zip(noise.reference, part.reference):
            assert np.array_equal(sliced, full[2:5])
        for full, sliced in zip(noise.transition, part.transition):
            if full is None:
                assert sliced is None
            else:
                assert np.array_equal(sliced, full[2:5])


# ---------------------------------------------------------------------------
# The score spec and the serial reducer
# ---------------------------------------------------------------------------
class TestImputationScoreSpec:
    def test_plan_is_policy_major_chunk_minor(self, fitted):
        spec = ImputationScoreSpec(fitted)
        num_masks = len(spec.masks)
        plan = spec.plan(10)  # batch_size=4 -> chunks (0,4) (4,8) (8,10)
        assert len(plan) == 3 * num_masks
        expected = [(p, s, min(s + 4, 10))
                    for p in range(num_masks) for s in (0, 4, 8)]
        assert [(t.policy_index, t.start, t.stop) for t in plan] == expected
        assert plan[-1].size == 2

    def test_requires_a_fitted_detector(self):
        with pytest.raises(RuntimeError, match="fitted"):
            ImputationScoreSpec(ImDiffusionDetector(_config()))

    def test_spec_survives_pickling(self, fitted):
        spec = pickle.loads(pickle.dumps(ImputationScoreSpec(fitted)))
        params = spec.build()
        assert len(params) == len(fitted._imputer.model.parameters())


class TestSerialScoreReducer:
    def test_equals_the_legacy_inline_loop(self, fitted):
        config = fitted.config
        windows = _windows(fitted, count=9)
        masks = build_masks(config, config.window_size, fitted.num_features)
        sampler = config.build_sampler()

        rng_legacy = np.random.default_rng(11)
        batch = windows.shape[0]
        legacy = {}
        for policy_index, mask in enumerate(masks):
            for chunk_start in range(0, batch, config.batch_size):
                chunk = windows[chunk_start:chunk_start + config.batch_size]
                for progress, squared in _legacy_window_errors(
                        fitted, chunk, mask, policy_index, rng_legacy, sampler):
                    if progress not in legacy:
                        legacy[progress] = np.zeros(
                            (batch,) + squared.shape[1:])
                    legacy[progress][chunk_start:chunk_start + chunk.shape[0]] \
                        += squared

        rng_spec = np.random.default_rng(11)
        totals = SerialScoreReducer(ImputationScoreSpec(fitted)).window_errors(
            windows, rng_spec)

        assert set(totals) == set(legacy)
        for progress in legacy:
            assert np.array_equal(totals[progress], legacy[progress])
        assert rng_legacy.bit_generator.state == rng_spec.bit_generator.state

    def test_custom_on_result_sees_plan_order(self, fitted):
        windows = _windows(fitted, count=6)
        seen = []
        result = SerialScoreReducer(ImputationScoreSpec(fitted)).window_errors(
            windows, np.random.default_rng(0),
            on_result=lambda task, errors: seen.append(task))
        assert result is None
        assert seen == ImputationScoreSpec(fitted).plan(6)


# ---------------------------------------------------------------------------
# The multiprocess reducer: worker-count invariance and bit-identity
# ---------------------------------------------------------------------------
class TestMultiprocessScoreReducer:
    def test_rejects_zero_workers(self, fitted):
        with pytest.raises(ValueError, match="at least 1"):
            MultiprocessScoreReducer(ImputationScoreSpec(fitted), 0)

    def test_one_worker_is_bit_identical_to_serial(self, fitted):
        windows = _windows(fitted, count=7)
        rng_serial = np.random.default_rng(21)
        serial = SerialScoreReducer(ImputationScoreSpec(fitted)).window_errors(
            windows, rng_serial)

        rng_pool = np.random.default_rng(21)
        with MultiprocessScoreReducer(ImputationScoreSpec(fitted), 1) as reducer:
            pooled = reducer.window_errors(windows, rng_pool)

        assert set(serial) == set(pooled)
        for progress in serial:
            assert np.array_equal(serial[progress], pooled[progress])
        assert rng_serial.bit_generator.state == rng_pool.bit_generator.state

    def test_two_workers_match_and_pool_persists_across_batches(self, fitted):
        windows = _windows(fitted, count=7)
        rng_serial = np.random.default_rng(22)
        serial_reducer = SerialScoreReducer(ImputationScoreSpec(fitted))
        serial_one = serial_reducer.window_errors(windows, rng_serial)
        serial_two = serial_reducer.window_errors(windows[:3], rng_serial)

        rng_pool = np.random.default_rng(22)
        with MultiprocessScoreReducer(ImputationScoreSpec(fitted), 2) as reducer:
            pooled_one = reducer.window_errors(windows, rng_pool)
            pooled_two = reducer.window_errors(windows[:3], rng_pool)

        for serial, pooled in ((serial_one, pooled_one),
                               (serial_two, pooled_two)):
            for progress in serial:
                assert np.array_equal(serial[progress], pooled[progress])
        assert rng_serial.bit_generator.state == rng_pool.bit_generator.state

    def test_close_is_idempotent_and_reopen_works(self, fitted):
        reducer = MultiprocessScoreReducer(ImputationScoreSpec(fitted), 1)
        reducer.open()
        reducer.close()
        reducer.close()
        # window_errors self-heals by reopening the pool.
        totals = reducer.window_errors(_windows(fitted, count=2),
                                       np.random.default_rng(0))
        assert totals
        reducer.close()

    def test_worker_failure_raises_and_tears_the_pool_down(self, fitted):
        reducer = MultiprocessScoreReducer(ExplodingSpec(fitted), 1)
        with reducer:
            with pytest.raises(RuntimeError, match="boom in the worker"):
                reducer.window_errors(_windows(fitted, count=2),
                                      np.random.default_rng(0))
            # The failed batch closed the pool so lockstep cannot desync.
            assert reducer._pool is None

    def test_worker_start_up_failure_is_reported_on_the_first_task(self, fitted):
        with MultiprocessScoreReducer(UnbuildableSpec(fitted), 1) as reducer:
            with pytest.raises(RuntimeError, match=(
                    r"scoring worker failed:(.|\n)*failed to initialise"
                    r"(.|\n)*no replica here")):
                reducer.window_errors(_windows(fitted, count=2),
                                      np.random.default_rng(0))
            assert reducer._pool is None


class TestDetectorScoreWorkers:
    def test_score_workers_must_be_positive(self, fitted, test_series):
        with pytest.raises(ValueError, match="at least 1"):
            fitted.score(test_series, score_workers=0)

    def test_parallel_scores_and_labels_match_serial(self, fitted, test_series):
        import copy

        serial_det = copy.deepcopy(fitted)
        pooled_det = copy.deepcopy(fitted)
        serial = serial_det.predict(test_series)
        pooled = pooled_det.predict(test_series, score_workers=2)
        assert np.array_equal(serial.scores, pooled.scores)
        assert np.array_equal(serial.labels, pooled.labels)
        for progress in serial.step_errors:
            assert np.array_equal(serial.step_errors[progress],
                                  pooled.step_errors[progress])
        assert (serial_det._rng.bit_generator.state
                == pooled_det._rng.bit_generator.state)


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
class TestFrozenDetectorLoops:
    """The one reducer path of score/holdout_error vs the inline loops it replaced."""

    def test_score_matches_the_frozen_serial_loop(self, fitted, test_series,
                                                  sampler):
        legacy_det = _with_sampler(fitted, sampler)
        legacy_det.score = lambda test, score_workers=1: _legacy_score(
            legacy_det, test)
        new_det = _with_sampler(fitted, sampler)
        legacy = legacy_det.predict(test_series)
        new = new_det.predict(test_series)
        assert list(new.step_errors) == list(legacy.step_errors)
        for progress in legacy.step_errors:
            assert np.array_equal(new.step_errors[progress],
                                  legacy.step_errors[progress])
        assert np.array_equal(new.labels, legacy.labels)
        assert (new_det._rng.bit_generator.state
                == legacy_det._rng.bit_generator.state)
        assert new_det.model.training == fitted.model.training

    def test_holdout_matches_the_frozen_loop_and_spares_the_rng(
            self, fitted, test_series, sampler):
        detector = _with_sampler(fitted, sampler)
        before = copy.deepcopy(detector._rng.bit_generator.state)
        value = detector.holdout_error(test_series, seed=7)
        assert detector._rng.bit_generator.state == before
        assert value == _legacy_holdout_error(
            _with_sampler(fitted, sampler), test_series, seed=7)
        assert detector.model.training == fitted.model.training


# ---------------------------------------------------------------------------
# Zero-copy transport: per-step messages never scale with the model
# ---------------------------------------------------------------------------
class TestSharedMemoryTransport:
    def _step_message_bytes(self, hidden_dim, num_blocks):
        config = _config(hidden_dim=hidden_dim, num_blocks=num_blocks)
        rng = np.random.default_rng(0)
        detector = ImDiffusionDetector(config).fit(
            rng.standard_normal((120, 3)))
        masks = build_masks(config, config.window_size, 3)
        spec = ImputationLossSpec(detector._imputer, np.stack(masks))
        reducer = MultiprocessReducer(spec, 2)
        windows = rng.standard_normal((8, config.window_size, 3))
        batch = Batch(arrays=(windows,), indices=np.arange(8))
        payload = spec.draw(batch, np.random.default_rng(1), TrainState())
        start, stop = _shard_bounds(batch.size, 2)[0]
        request = reducer._shard_request(
            "loss", batch, payload, TrainState(), start, stop)
        return len(pickle.dumps((7, request))), detector

    def test_gradient_step_bytes_independent_of_parameter_count(self):
        small_bytes, small_det = self._step_message_bytes(8, 1)
        large_bytes, large_det = self._step_message_bytes(32, 2)
        small_params = sum(p.data.size
                           for p in small_det._imputer.model.parameters())
        large_params = sum(p.data.size
                           for p in large_det._imputer.model.parameters())
        assert large_params > 4 * small_params
        assert small_bytes == large_bytes

    def test_score_task_bytes_independent_of_parameter_count(self, fitted):
        def task_message_bytes(detector):
            spec = ImputationScoreSpec(detector)
            windows = _windows(detector, count=4)
            task = ScoreTask(policy_index=0, start=0, stop=4)
            payload = spec.draw(windows, task, np.random.default_rng(2))
            return len(pickle.dumps((7, task, windows[0:4], payload)))

        rng = np.random.default_rng(0)
        large = ImDiffusionDetector(
            _config(hidden_dim=32, num_blocks=2)).fit(
                rng.standard_normal((120, 3)))
        assert task_message_bytes(fitted) == task_message_bytes(large)


# ---------------------------------------------------------------------------
# WorkerPool and the cleanup registry
# ---------------------------------------------------------------------------
class TestWorkerPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(lambda conn: None, (), 0)

    def test_close_before_start_and_double_close(self):
        pool = WorkerPool(lambda conn: None, (), 2)
        pool.close()
        assert not pool.is_open
        pool.close()


def _kill(pid):
    """SIGKILL one pool worker and wait until the parent has reaped it."""
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while any(child.pid == pid for child in multiprocessing.active_children()):
        assert time.monotonic() < deadline, f"worker {pid} survived SIGKILL"
        time.sleep(0.01)


class TestDeadWorker:
    """A killed worker raises one RuntimeError in both jobs and closes the pool."""

    def test_scoring_worker_death_closes_the_pool_and_reopens(self, fitted):
        spec = ImputationScoreSpec(fitted)
        windows = _windows(fitted, count=7)
        with MultiprocessScoreReducer(spec, 2) as reducer:
            pool = reducer._pool
            pid = reducer.worker_pids[1]
            _kill(pid)
            with pytest.raises(RuntimeError, match=(
                    rf"scoring worker 1 \(pid {pid}\) died with exit code -9")):
                reducer.window_errors(windows, np.random.default_rng(0))
            assert not pool.is_open
            assert reducer.worker_pids == []
            # The next call reopens the pool; the failed batch is not replayed.
            pooled = reducer.window_errors(windows, np.random.default_rng(3))
            assert len(reducer.worker_pids) == 2
        serial = SerialScoreReducer(spec).window_errors(
            windows, np.random.default_rng(3))
        assert set(serial) == set(pooled)
        for progress in serial:
            assert np.array_equal(serial[progress], pooled[progress])

    def test_gradient_worker_death_closes_the_pool(self, fitted):
        detector = copy.deepcopy(fitted)
        masks = build_masks(detector.config, detector.config.window_size, 3)
        spec = ImputationLossSpec(detector._imputer, np.stack(masks))
        params = detector._imputer.model.parameters()
        trainer = ParallelTrainer(params, Adam(params, lr=1e-3), spec,
                                  num_workers=2, rng=np.random.default_rng(0))
        reducer = trainer.reducer
        windows = _windows(detector, count=8)
        batch = Batch(arrays=(windows,), indices=np.arange(8))
        try:
            reducer.open(trainer)
            pool = reducer._pool
            pid = pool.worker_pids[0]
            _kill(pid)
            with pytest.raises(RuntimeError, match=(
                    rf"gradient worker 0 \(pid {pid}\) died with exit code -9")):
                reducer.accumulate(batch, TrainState())
            assert not pool.is_open
        finally:
            reducer.close()

    def test_service_ingest_after_a_worker_death_fails_loudly(self, fitted):
        service = DetectorService(copy.deepcopy(fitted), ServingConfig(
            flush_size=2, flush_age=3600.0, history=64, score_workers=2))
        service.register_tenant("t0")
        with service:
            pid = service.scorer.worker_pids[1]
            _kill(pid)
            with pytest.raises(RuntimeError, match=(
                    rf"scoring worker 1 \(pid {pid}\) died with exit code -9")):
                service.ingest("t0", np.random.default_rng(4).standard_normal(
                    (64, fitted.num_features)))
            assert service.scorer.worker_pids == []


class TestCleanupRegistry:
    def test_leaked_reducers_are_reaped_at_exit_without_warnings(self, tmp_path):
        # A process that opens scoring workers and a shared parameter block,
        # then exits without closing anything: the atexit cleanup registry
        # must shut the pool down and unlink the segment, with no
        # resource_tracker "leaked" complaints on stderr.
        script = tmp_path / "leaky.py"
        script.write_text(textwrap.dedent("""\
            import numpy as np
            from repro.core import ImDiffusionConfig, ImDiffusionDetector
            from repro.core.detector import ImputationScoreSpec
            from repro.inference import MultiprocessScoreReducer

            def main():
                config = ImDiffusionConfig(
                    window_size=8, num_steps=2, epochs=1, hidden_dim=8,
                    num_blocks=1, num_heads=2, batch_size=4,
                    num_masked_windows=1, num_unmasked_windows=1,
                    max_train_windows=8, train_stride=8, seed=0)
                rng = np.random.default_rng(0)
                detector = ImDiffusionDetector(config).fit(
                    rng.standard_normal((40, 2)))
                reducer = MultiprocessScoreReducer(
                    ImputationScoreSpec(detector), 1)
                reducer.open()
                reducer.window_errors(
                    rng.standard_normal((2, 8, 2)), np.random.default_rng(1))
                raise SystemExit(3)

            if __name__ == "__main__":
                main()
            """))
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=300)
        assert result.returncode == 3, result.stderr
        assert "leaked" not in result.stderr, result.stderr
        assert "Traceback" not in result.stderr, result.stderr

    def test_training_reducer_close_is_idempotent(self, fitted):
        masks = build_masks(fitted.config, fitted.config.window_size, 3)
        spec = ImputationLossSpec(fitted._imputer, np.stack(masks))
        reducer = MultiprocessReducer(spec, 2)
        # Never opened: close must still be a no-op, twice.
        reducer.close()
        reducer.close()

    def test_gradient_reducer_is_a_context_manager(self, fitted):
        masks = build_masks(fitted.config, fitted.config.window_size, 3)
        spec = ImputationLossSpec(fitted._imputer, np.stack(masks))
        with MultiprocessReducer(spec, 2) as reducer:
            assert reducer._pool is None  # entering does not acquire
        reducer.close()
