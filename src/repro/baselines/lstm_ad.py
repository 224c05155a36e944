"""LSTM-AD (Malhotra et al., 2015): LSTM forecasting with prediction-error scoring.

A stacked LSTM observes a short history window and predicts the next
timestamp; the anomaly score of a timestamp is the mean squared prediction
error over all channels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import LSTM, Linear, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["LSTMADDetector"]


class LSTMADDetector(BaseDetector):
    """Forecasting-based detector: score = next-step prediction error."""

    name = "LSTM-AD"
    supports_parallel = True
    _parallel_loss_method = "_forecast_loss"

    def __init__(self, history: int = 16, hidden_size: int = 32, num_layers: int = 1,
                 epochs: int = 5, batch_size: int = 32, learning_rate: float = 5e-3,
                 max_train_samples: int = 512, threshold_percentile: float = 97.0,
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
        self.history = history
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_train_samples = max_train_samples
        self._lstm: Optional[LSTM] = None
        self._head: Optional[Linear] = None

    # ------------------------------------------------------------------
    def _make_samples(self, series: np.ndarray) -> tuple:
        """Slice (history, next value) pairs from a series."""
        history = min(self.history, series.shape[0] - 1)
        inputs, targets, positions = [], [], []
        for t in range(history, series.shape[0]):
            inputs.append(series[t - history:t])
            targets.append(series[t])
            positions.append(t)
        return np.asarray(inputs), np.asarray(targets), np.asarray(positions)

    def _trainer_parameters(self):
        return self._lstm.parameters() + self._head.parameters()

    def _forecast_loss(self, batch, state):
        # A method (not a closure) so data-parallel workers can rebuild it
        # from a pickled replica of the detector.
        batch_inputs, batch_targets = batch
        _, last_hidden = self._lstm(Tensor(batch_inputs))
        prediction = self._head(last_hidden)
        return F.mse_loss(prediction, Tensor(batch_targets))

    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._lstm = LSTM(num_features, self.hidden_size, num_layers=self.num_layers,
                          rng=self.rng)
        self._head = Linear(self.hidden_size, num_features, rng=self.rng)

        inputs, targets, _ = self._make_samples(train)
        if inputs.shape[0] > self.max_train_samples:
            idx = self._subsample_indices(inputs.shape[0], self.max_train_samples)
            inputs, targets = inputs[idx], targets[idx]

        self._run_trainer((inputs, targets),
                          epochs=self.epochs, batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _score(self, test: np.ndarray) -> np.ndarray:
        inputs, targets, positions = self._make_samples(test)
        scores = np.zeros(test.shape[0])
        for start in range(0, inputs.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            _, last_hidden = self._lstm(Tensor(inputs[chunk]))
            prediction = self._head(last_hidden).data
            errors = ((prediction - targets[chunk]) ** 2).mean(axis=1)
            scores[positions[chunk]] = errors
        # The first `history` timestamps have no prediction; use the median score.
        if inputs.shape[0] > 0:
            scores[:positions[0]] = np.median(scores[positions])
        return scores
