"""MSCRED (Zhang et al., 2019): multi-scale signature-matrix reconstruction.

MSCRED characterises each window by *signature matrices* — inter-channel
correlation matrices computed at several temporal scales — and learns to
reconstruct them with a convolutional-recurrent autoencoder.  Anomalies
surface as poorly reconstructed signature matrices.

This implementation keeps the defining idea (multi-scale signature matrices,
reconstruction-residual scoring) while replacing the heavy ConvLSTM
encoder/decoder with a dense autoencoder over the flattened matrices, which
preserves the ranking behaviour at a fraction of the cost on the NumPy
substrate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn import MLP, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["MSCREDDetector"]


class MSCREDDetector(BaseDetector):
    """Signature-matrix reconstruction detector."""

    name = "MSCRED"
    supports_parallel = True
    _parallel_loss_method = "_reconstruction_loss"

    def __init__(self, window_size: int = 32, scales: Tuple[int, ...] = (8, 16, 32),
                 hidden_dim: int = 64, latent_dim: int = 16,
                 epochs: int = 5, batch_size: int = 16, learning_rate: float = 2e-3,
                 max_train_windows: int = 96, threshold_percentile: float = 97.0,
                 seed: int = 0, early_stopping_patience: Optional[int] = None,
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
        self.scales = scales
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_train_windows = max_train_windows
        self._autoencoder: Optional[MLP] = None
        self._window_size = window_size
        self._effective_scales: Tuple[int, ...] = scales

    # ------------------------------------------------------------------
    def _signature_matrices(self, window: np.ndarray) -> np.ndarray:
        """Stack of normalised inner-product matrices at each temporal scale."""
        num_features = window.shape[1]
        matrices = []
        for scale in self._effective_scales:
            segment = window[-scale:]
            matrix = segment.T @ segment / scale
            matrices.append(matrix)
        return np.stack(matrices).reshape(-1)  # (num_scales * K * K,)

    def _features(self, windows: np.ndarray) -> np.ndarray:
        return np.stack([self._signature_matrices(w) for w in windows])

    def _fit(self, train: np.ndarray) -> None:
        self._window_size = min(self.window_size, train.shape[0])
        self._effective_scales = tuple(min(s, self._window_size) for s in self.scales)
        windows, _ = self._windows(train, self._window_size, self._window_size // 2 or 1)
        if windows.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(windows.shape[0], self.max_train_windows)
            windows = windows[idx]
        features = self._features(windows)
        input_dim = features.shape[1]
        self._autoencoder = MLP([input_dim, self.hidden_dim, self.latent_dim,
                                 self.hidden_dim, input_dim], rng=self.rng)

        self._run_trainer((features,), epochs=self.epochs,
                          batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _trainer_parameters(self):
        return self._autoencoder.parameters()

    def _reconstruction_loss(self, batch, state):
        # A method (not a closure) so data-parallel workers can rebuild it
        # from a pickled replica of the detector.
        target = Tensor(batch.data)
        return F.mse_loss(self._autoencoder(target), target)

    def _score(self, test: np.ndarray) -> np.ndarray:
        windows, starts = self._windows(test, self._window_size, max(self._window_size // 4, 1))
        features = self._features(windows)
        reconstruction = np.zeros_like(features)
        for start in range(0, features.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            reconstruction[chunk] = self._autoencoder(Tensor(features[chunk])).data
        window_scores = ((reconstruction - features) ** 2).mean(axis=1)
        # A window-level residual is attributed to every timestamp it covers.
        per_timestamp = np.repeat(window_scores[:, None], self._window_size, axis=1)
        return self._merge_window_scores(per_timestamp, starts, test.shape[0])
