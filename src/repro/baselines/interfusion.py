"""InterFusion (Li et al., 2021): hierarchical inter-metric + temporal modelling.

InterFusion models a window with two latent variables — one capturing
inter-metric structure (how the channels relate at each timestamp) and one
capturing temporal structure (how the window evolves) — and reconstructs the
window from both.  This implementation keeps that two-view hierarchical VAE:

* the *inter-metric* encoder compresses each timestamp's feature vector,
* the *temporal* encoder (a GRU) compresses the sequence of compressed
  timestamps into a window-level latent,
* the decoder reconstructs the window from the temporal latent plus the
  per-timestamp inter-metric latents.

The anomaly score is the per-timestamp reconstruction error.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import GRU, Linear, MLP, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["InterFusionDetector"]


class InterFusionDetector(BaseDetector):
    """Hierarchical two-view VAE reconstruction detector."""

    name = "InterFusion"
    supports_parallel = True
    _parallel_loss_method = "_spec_elbo_loss"
    _parallel_draw_method = "_draw_vae_noise"

    def __init__(self, window_size: int = 32, metric_latent_dim: int = 8,
                 temporal_latent_dim: int = 8, hidden_dim: int = 32,
                 epochs: int = 5, batch_size: int = 16, learning_rate: float = 2e-3,
                 kl_weight: float = 0.05, max_train_windows: int = 128,
                 threshold_percentile: float = 97.0, seed: int = 0,
                 early_stopping_patience: Optional[int] = None,
                 early_stopping_min_delta: float = 0.0,
                 validation_fraction: float = 0.0,
                 validation_split: str = "random",
                 num_workers: int = 1) -> None:
        super().__init__(threshold_percentile=threshold_percentile, seed=seed,
                         early_stopping_patience=early_stopping_patience,
                         early_stopping_min_delta=early_stopping_min_delta,
                         validation_fraction=validation_fraction,
                         validation_split=validation_split,
                         num_workers=num_workers)
        self.window_size = window_size
        self.metric_latent_dim = metric_latent_dim
        self.temporal_latent_dim = temporal_latent_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.kl_weight = kl_weight
        self.max_train_windows = max_train_windows
        self._window_size = window_size

    # ------------------------------------------------------------------
    def _build(self, num_features: int) -> None:
        rng = self.rng
        self._metric_encoder = MLP([num_features, self.hidden_dim, 2 * self.metric_latent_dim],
                                   rng=rng)
        self._temporal_encoder = GRU(self.metric_latent_dim, self.hidden_dim, rng=rng)
        self._temporal_mu = Linear(self.hidden_dim, self.temporal_latent_dim, rng=rng)
        self._temporal_logvar = Linear(self.hidden_dim, self.temporal_latent_dim, rng=rng)
        self._decoder = MLP(
            [self.metric_latent_dim + self.temporal_latent_dim, self.hidden_dim, num_features],
            rng=rng)
        self._parameters = (self._metric_encoder.parameters()
                            + self._temporal_encoder.parameters()
                            + self._temporal_mu.parameters()
                            + self._temporal_logvar.parameters()
                            + self._decoder.parameters())

    def _trainer_parameters(self):
        return list(self._parameters)

    def _draw_vae_noise(self, batch, rng: np.random.Generator, state):
        """Both reparameterisation draws of one batch, drawn in the parent.

        Metric noise ``(B, L, mz)`` first and temporal noise ``(B, tz)``
        second from the same stream.
        """
        length = batch.data.shape[1]
        return (rng.standard_normal((batch.size, length, self.metric_latent_dim)),
                rng.standard_normal((batch.size, self.temporal_latent_dim)))

    def _spec_elbo_loss(self, batch, payload, state):
        data = batch.data
        reconstruction, metric_mu, metric_logvar, temporal_mu, temporal_logvar = \
            self._encode_decode(data, noise=payload)
        return F.mse_loss(reconstruction, Tensor(data)) \
            + self.kl_weight * F.kl_divergence_normal(metric_mu.reshape(-1, self.metric_latent_dim),
                                                      metric_logvar.reshape(-1, self.metric_latent_dim)) \
            + self.kl_weight * F.kl_divergence_normal(temporal_mu, temporal_logvar)

    def _encode_decode(self, batch: np.ndarray, noise=None):
        """Return the reconstruction plus the variational statistics.

        ``noise`` is the pre-drawn ``(metric, temporal)`` reparameterisation
        noise pair of training; without it (scoring) both latents are their
        means.
        """
        batch_size, length, _ = batch.shape
        x = Tensor(batch)

        metric_stats = self._metric_encoder(x)                       # (B, L, 2*mz)
        metric_mu = metric_stats[:, :, :self.metric_latent_dim]
        metric_logvar = metric_stats[:, :, self.metric_latent_dim:].clip(-6.0, 6.0)
        if noise is not None:
            metric_latent = metric_mu + (metric_logvar * 0.5).exp() * Tensor(noise[0])
        else:
            metric_latent = metric_mu

        _, final_hidden = self._temporal_encoder(metric_latent)      # (B, hidden)
        temporal_mu = self._temporal_mu(final_hidden)
        temporal_logvar = self._temporal_logvar(final_hidden).clip(-6.0, 6.0)
        if noise is not None:
            temporal_latent = temporal_mu + (temporal_logvar * 0.5).exp() * Tensor(noise[1])
        else:
            temporal_latent = temporal_mu

        # Broadcast the temporal latent over the window and decode per timestamp.
        repeated = temporal_latent.expand_dims(1).repeat(length, axis=1)
        from ..nn import concat

        joint = concat([metric_latent, repeated], axis=2)
        reconstruction = self._decoder(joint)                        # (B, L, K)
        return reconstruction, metric_mu, metric_logvar, temporal_mu, temporal_logvar

    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._window_size = min(self.window_size, train.shape[0])
        self._build(num_features)

        windows, _ = self._windows(train, self._window_size, self._window_size // 2 or 1)
        if windows.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(windows.shape[0], self.max_train_windows)
            windows = windows[idx]

        self._run_trainer((windows,), epochs=self.epochs,
                          batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _score(self, test: np.ndarray) -> np.ndarray:
        windows, starts = self._windows(test, self._window_size, self._window_size // 2 or 1)
        window_errors = np.zeros((windows.shape[0], windows.shape[1]))
        for start in range(0, windows.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            reconstruction, *_ = self._encode_decode(windows[chunk])
            window_errors[chunk] = ((reconstruction.data - windows[chunk]) ** 2).mean(axis=2)
        return self._merge_window_scores(window_errors, starts, test.shape[0])
