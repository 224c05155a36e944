"""Baseline training: one spec path, held to frozen copies of the closures it replaced.

Every trainable baseline trains through its :class:`~repro.training.ParallelLossSpec`
whatever the worker count; the worker count only picks the gradient reducer.
The contracts:

* at ``num_workers=1`` the spec path is **bit-identical** to the frozen serial
  closures below, run on the public closure engine (``Trainer(loss_fn)``
  with a ``SerialReducer``) — parameters, train and validation loss curves
  and the random stream all match exactly, with and without a held-out
  split and early stopping,
* ``num_workers=2`` (spawned gradient workers) agrees with the serial run up
  to float summation order in the shard-gradient average,
* for the GAN pair the *discriminator* weights must agree too: the
  adversary-gradient reduction steps the parent's discriminator optimizer
  between the two rounds of every batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BeatGANDetector,
    GDNDetector,
    InterFusionDetector,
    MADGANDetector,
    OmniAnomalyDetector,
    TranADDetector,
)
from repro.nn import Adam, Tensor, concat, no_grad
from repro.nn import functional as F
from repro.training import (
    VALIDATION_SEED_OFFSET,
    Callback,
    EarlyStopping,
    Trainer,
    WindowLoader,
    split_windows,
)


def _series(length=140, num_channels=4, seed=0):
    rng = np.random.default_rng(seed)
    base = np.sin(np.arange(length) / 9.0)[:, None] * np.ones((1, num_channels))
    return base + 0.1 * rng.standard_normal((length, num_channels))


# ---------------------------------------------------------------------------
# Frozen serial engine and closures (the references)
# ---------------------------------------------------------------------------
class _LegacyEngine:
    """The closure engine the baselines trained on before the spec path.

    Replaces only ``_run_trainer``: model construction and data preparation
    run the detector's own ``_fit``, so both sides consume the random stream
    identically up to training.  The closures draw from ``self.rng``, so the
    held-out pass swaps it for the validation generator.
    """

    def _legacy_closures(self):
        """``(loss_fn, val_loss_fn or None, extra callbacks)``."""
        raise NotImplementedError

    def _run_trainer(self, arrays, *, epochs, batch_size, learning_rate):
        loss_fn, val_loss_fn, extra_callbacks = self._legacy_closures()
        arrays, val_arrays = split_windows(
            tuple(arrays), self.validation_fraction, self.rng,
            split=self.validation_split)
        loader = WindowLoader(*arrays, batch_size=batch_size, rng=self.rng)
        validate_fn = None
        if val_arrays is not None:
            validate_fn = self._legacy_validate_fn(
                val_arrays, batch_size, val_loss_fn or loss_fn)
        parameters = self._trainer_parameters()
        callbacks = []
        if self.early_stopping_patience is not None:
            callbacks.append(EarlyStopping(
                patience=self.early_stopping_patience,
                min_delta=self.early_stopping_min_delta,
                restore_best=self._restore_best_weights,
            ))
        trainer = Trainer(parameters, Adam(parameters, lr=learning_rate),
                          loss_fn, grad_clip=5.0,
                          callbacks=callbacks + list(extra_callbacks),
                          rng=self.rng, validate_fn=validate_fn)
        result = trainer.fit(loader, epochs=epochs)
        self.train_losses = list(result.epoch_losses)
        self.val_losses = list(result.val_losses)
        return result

    def _legacy_validate_fn(self, val_arrays, batch_size, loss_fn):
        val_loader = WindowLoader(*val_arrays, batch_size=batch_size,
                                  shuffle=False)

        def validate(trainer, state):
            total, count = 0.0, 0
            train_rng = self.rng
            self.rng = np.random.default_rng(self.seed + VALIDATION_SEED_OFFSET)
            try:
                with no_grad():
                    for batch in val_loader:
                        loss = loss_fn(batch, state)
                        total += float(loss.data) * batch.size
                        count += batch.size
            finally:
                self.rng = train_rng
            return total / max(count, 1)

        return validate


class LegacyOmniAnomaly(_LegacyEngine, OmniAnomalyDetector):
    def _legacy_closures(self):
        def elbo_loss(batch, state):
            data = batch.data
            noise = self.rng.standard_normal((data.shape[0], self.latent_dim))
            _, last_hidden = self._encoder(Tensor(data))
            mu = self._mu_head(last_hidden)
            log_var = self._logvar_head(last_hidden).clip(-6.0, 6.0)
            latent = mu + (log_var * 0.5).exp() * Tensor(noise)
            reconstruction = self._decoder(latent)
            target = Tensor(data.reshape(data.shape[0], -1))
            return F.mse_loss(reconstruction, target) \
                + self.kl_weight * F.kl_divergence_normal(mu, log_var)

        return elbo_loss, None, ()


class LegacyInterFusion(_LegacyEngine, InterFusionDetector):
    def _legacy_closures(self):
        def hierarchical_elbo(batch, state):
            # Both reparameterisation draws interleave with the forward pass:
            # metric noise first, temporal noise second.
            data = batch.data
            length = data.shape[1]
            mz = self.metric_latent_dim
            metric_stats = self._metric_encoder(Tensor(data))
            metric_mu = metric_stats[:, :, :mz]
            metric_logvar = metric_stats[:, :, mz:].clip(-6.0, 6.0)
            metric_latent = metric_mu + (metric_logvar * 0.5).exp() * Tensor(
                self.rng.standard_normal(metric_mu.shape))
            _, final_hidden = self._temporal_encoder(metric_latent)
            temporal_mu = self._temporal_mu(final_hidden)
            temporal_logvar = self._temporal_logvar(final_hidden).clip(-6.0, 6.0)
            temporal_latent = temporal_mu + (temporal_logvar * 0.5).exp() * Tensor(
                self.rng.standard_normal(temporal_mu.shape))
            repeated = temporal_latent.expand_dims(1).repeat(length, axis=1)
            reconstruction = self._decoder(concat([metric_latent, repeated], axis=2))
            return F.mse_loss(reconstruction, Tensor(data)) \
                + self.kl_weight * F.kl_divergence_normal(
                    metric_mu.reshape(-1, mz), metric_logvar.reshape(-1, mz)) \
                + self.kl_weight * F.kl_divergence_normal(temporal_mu, temporal_logvar)

        return hierarchical_elbo, None, ()


class LegacyMADGAN(_LegacyEngine, MADGANDetector):
    def _legacy_closures(self):
        def adversarial_loss(batch, state):
            # Discriminator update inline; the Trainer steps the generator.
            # One latent draw feeds both rounds, as in the original loop.
            payload = self._draw_latent(batch, self.rng, state)
            self._discriminator_opt.zero_grad()
            d_loss = self._adversary_loss(batch, payload, state)
            d_loss.backward()
            self._discriminator_opt.step()
            return self._generator_loss(batch, payload, state)

        def validation_loss(batch, state):
            # Side-effect free: the discriminator is consulted, never stepped.
            payload = self._draw_latent(batch, self.rng, state)
            return self._generator_loss(batch, payload, state)

        return adversarial_loss, validation_loss, ()


class LegacyBeatGAN(_LegacyEngine, BeatGANDetector):
    def _legacy_closures(self):
        def adversarial_loss(batch, state):
            self._discriminator_opt.zero_grad()
            d_loss = self._adversary_loss(batch, (), state)
            d_loss.backward()
            self._discriminator_opt.step()
            return self._generator_loss(batch, (), state)

        def validation_loss(batch, state):
            return self._generator_loss(batch, (), state)

        return adversarial_loss, validation_loss, ()


class LegacyGDN(_LegacyEngine, GDNDetector):
    def _legacy_closures(self):
        # The graph is rebuilt at every epoch start and frozen within it.
        graph = {"adjacency": None}
        detector = self

        class RebuildGraph(Callback):
            def on_epoch_start(self, trainer, state):
                graph["adjacency"] = detector._learn_graph()

        def deviation_loss(batch, state):
            batch_inputs, batch_targets = batch
            prediction = self._forecast(batch_inputs, graph["adjacency"])
            return F.mse_loss(prediction, Tensor(batch_targets))

        return deviation_loss, None, [RebuildGraph()]


class LegacyTranAD(_LegacyEngine, TranADDetector):
    def _legacy_closures(self):
        def validation_loss(batch, state):
            # Fixed ``blend`` weighting, not the training schedule's.
            phase1, phase2 = self._two_phase(batch.data)
            target = Tensor(batch.data)
            return (1.0 - self.blend) * F.mse_loss(phase1, target) \
                + self.blend * F.mse_loss(phase2, target)

        return self._two_phase_loss, validation_loss, ()


# Tiny-but-real configurations: two epochs so optimizer moments matter, and
# enough windows that a batch actually splits across two workers.
CASES = {
    "OmniAnomaly": (OmniAnomalyDetector, LegacyOmniAnomaly,
                    dict(window_size=16, hidden_size=8, latent_dim=4, epochs=2,
                         batch_size=8, max_train_windows=24, seed=0)),
    "InterFusion": (InterFusionDetector, LegacyInterFusion,
                    dict(window_size=16, metric_latent_dim=4,
                         temporal_latent_dim=4, hidden_dim=8, epochs=2,
                         batch_size=8, max_train_windows=24, seed=0)),
    "MAD-GAN": (MADGANDetector, LegacyMADGAN,
                dict(window_size=16, latent_dim=4, hidden_size=8, epochs=2,
                     batch_size=8, max_train_windows=24, seed=0)),
    "BeatGAN": (BeatGANDetector, LegacyBeatGAN,
                dict(window_size=16, latent_dim=4, hidden_dim=8, epochs=2,
                     batch_size=8, max_train_windows=24, seed=0)),
    "GDN": (GDNDetector, LegacyGDN,
            dict(history=8, embedding_dim=8, top_k=2, hidden_dim=8, epochs=2,
                 batch_size=8, max_train_samples=24, seed=0)),
    "TranAD": (TranADDetector, LegacyTranAD,
               dict(window_size=16, hidden_size=8, num_heads=2, epochs=2,
                    batch_size=8, max_train_windows=24, seed=0)),
}

#: The five detectors whose spec replaced a stochastic or stateful closure.
SPEC_FACTORED = ["BeatGAN", "GDN", "InterFusion", "MAD-GAN", "OmniAnomaly"]

#: Plain training, then a held-out split (random and tail) with early
#: stopping, so validation losses and best-epoch restores are compared too.
TRAINING = {
    "plain": {},
    "validated": dict(epochs=3, validation_fraction=0.25,
                      early_stopping_patience=1),
    "validated-tail": dict(epochs=3, validation_fraction=0.25,
                           validation_split="tail", early_stopping_patience=1),
}


def _fit(name, *, legacy=False, num_workers=1, **overrides):
    cls, legacy_cls, kwargs = CASES[name]
    detector_cls = legacy_cls if legacy else cls
    return detector_cls(num_workers=num_workers,
                        **{**kwargs, **overrides}).fit(_series())


def _all_parameters(detector):
    parameters = list(detector._trainer_parameters())
    if getattr(type(detector), "_adversary_loss_method", None) is not None:
        parameters += list(detector._adversary_parameters())
    return parameters


@pytest.mark.parametrize("training", sorted(TRAINING))
@pytest.mark.parametrize("name", sorted(CASES))
class TestSpecBitIdentity:
    """Spec path at one worker vs the frozen serial closure: bitwise equal."""

    def test_parameters_and_losses_bit_identical(self, name, training):
        legacy = _fit(name, legacy=True, **TRAINING[training])
        spec = _fit(name, **TRAINING[training])
        for a, b in zip(_all_parameters(legacy), _all_parameters(spec)):
            np.testing.assert_array_equal(b.data, a.data)
        assert spec.train_losses == legacy.train_losses
        assert spec.val_losses == legacy.val_losses
        assert bool(spec.val_losses) == (training != "plain")

    def test_rng_stream_position_unchanged(self, name, training):
        legacy = _fit(name, legacy=True, **TRAINING[training])
        spec = _fit(name, **TRAINING[training])
        assert (spec.rng.standard_normal(4).tolist()
                == legacy.rng.standard_normal(4).tolist())


@pytest.mark.parametrize("name", SPEC_FACTORED)
class TestWorkerInvariance:
    """Two spawned workers vs serial: equal up to gradient summation order."""

    def test_two_workers_match_serial(self, name):
        serial = _fit(name)
        parallel = _fit(name, num_workers=2)
        for a, b in zip(_all_parameters(serial), _all_parameters(parallel)):
            np.testing.assert_allclose(b.data, a.data, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(parallel.train_losses, serial.train_losses,
                                   rtol=1e-8, atol=1e-10)

    def test_scores_match_serial(self, name):
        series = _series(seed=3)
        serial = _fit(name)
        parallel = _fit(name, num_workers=2)
        np.testing.assert_allclose(parallel.score(series), serial.score(series),
                                   rtol=1e-6, atol=1e-8)
