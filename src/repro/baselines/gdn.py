"""GDN (Deng & Hooi, 2021): Graph Deviation Network.

GDN learns an embedding per sensor, builds a sparse similarity graph over the
sensors (top-k cosine similarity of the embeddings), forecasts each sensor
from its graph neighbours with attention, and scores anomalies by the maximum
normalised forecasting deviation over sensors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Linear, MLP, Parameter, Tensor
from ..nn import functional as F
from ..nn import init as nn_init
from .base import BaseDetector

__all__ = ["GDNDetector"]


class GDNDetector(BaseDetector):
    """Graph-structure-learning forecaster with per-sensor deviation scoring."""

    name = "GDN"
    supports_parallel = True
    _parallel_loss_method = "_spec_deviation_loss"
    _parallel_draw_method = "_draw_graph"

    def __init__(self, history: int = 12, embedding_dim: int = 16, top_k: int = 5,
                 hidden_dim: int = 32, epochs: int = 4, batch_size: int = 32,
                 learning_rate: float = 3e-3, max_train_samples: int = 384,
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
        self.history = history
        self.embedding_dim = embedding_dim
        self.top_k = top_k
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_train_samples = max_train_samples
        self._sensor_embedding: Optional[Parameter] = None
        self._history_proj: Optional[Linear] = None
        self._output_head: Optional[MLP] = None
        self._adjacency: Optional[np.ndarray] = None
        self._spec_adjacency: Optional[np.ndarray] = None
        self._error_median: Optional[np.ndarray] = None
        self._error_iqr: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _learn_graph(self) -> np.ndarray:
        """Top-k cosine-similarity adjacency over the learned sensor embeddings."""
        embeddings = self._sensor_embedding.data
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True) + 1e-9
        similarity = (embeddings / norms) @ (embeddings / norms).T
        np.fill_diagonal(similarity, -np.inf)
        num_sensors = similarity.shape[0]
        adjacency = np.zeros_like(similarity)
        k = min(self.top_k, num_sensors - 1)
        if k > 0:
            for i in range(num_sensors):
                neighbours = np.argsort(similarity[i])[-k:]
                adjacency[i, neighbours] = 1.0
        return adjacency

    def _forecast(self, histories: np.ndarray, adjacency: np.ndarray) -> Tensor:
        """Predict the next value of every sensor from its neighbours' histories.

        ``histories`` has shape ``(batch, history, num_sensors)``.
        """
        batch, history, num_sensors = histories.shape
        # Per-sensor history representation: (batch, sensors, hidden).
        per_sensor = Tensor(histories.transpose(0, 2, 1))
        hidden = self._history_proj(per_sensor).relu()

        # Aggregate neighbour representations with the (row-normalised) adjacency.
        row_sums = adjacency.sum(axis=1, keepdims=True)
        weights = adjacency / np.maximum(row_sums, 1.0)
        neighbour_info = Tensor(np.broadcast_to(weights, (batch, num_sensors, num_sensors)).copy()) \
            .matmul(hidden)

        combined = hidden + neighbour_info
        # The (sensors, hidden) gate broadcasts over the batch, and autograd
        # sums its gradient back onto the embedding parameter.
        fused = combined * self._embedding_gate(self._sensor_embedding)
        return self._output_head(fused).squeeze(2)

    def _embedding_gate(self, embeddings: Tensor) -> Tensor:
        """Project the sensor embedding to a multiplicative gate over hidden units."""
        return self._embedding_proj(embeddings).sigmoid()

    def _trainer_parameters(self):
        return ([self._sensor_embedding] + self._history_proj.parameters()
                + self._embedding_proj.parameters() + self._output_head.parameters())

    def _draw_graph(self, batch, rng: np.random.Generator, state):
        """Epoch-frozen adjacency, shipped with the batch as a spec payload.

        Consumes no randomness.  Rebuilt from the parent's current embeddings
        at the first batch of every epoch (``state.batch == 0``) and frozen
        within the epoch — the original GDN protocol — so the held-out pass
        after an epoch reuses that epoch's graph.  Broadcast over the batch
        so every shard carries the same graph.
        """
        if state.batch == 0 or self._spec_adjacency is None:
            self._spec_adjacency = self._learn_graph()
        num_sensors = self._spec_adjacency.shape[0]
        return (np.broadcast_to(self._spec_adjacency,
                                (batch.size, num_sensors, num_sensors)),)

    def _spec_deviation_loss(self, batch, payload, state) -> Tensor:
        batch_inputs, batch_targets = batch
        prediction = self._forecast(batch_inputs, payload[0][0])
        return F.mse_loss(prediction, Tensor(batch_targets))

    def _make_samples(self, series: np.ndarray) -> tuple:
        history = self.history
        inputs, targets, positions = [], [], []
        for t in range(history, series.shape[0]):
            inputs.append(series[t - history:t])
            targets.append(series[t])
            positions.append(t)
        return np.asarray(inputs), np.asarray(targets), np.asarray(positions)

    def _fit(self, train: np.ndarray) -> None:
        num_sensors = train.shape[1]
        self.history = min(self.history, max(2, train.shape[0] // 4))
        self._sensor_embedding = Parameter(
            nn_init.normal((num_sensors, self.embedding_dim), self.rng, std=0.1))
        self._history_proj = Linear(self.history, self.hidden_dim, rng=self.rng)
        self._embedding_proj = Linear(self.embedding_dim, self.hidden_dim, rng=self.rng)
        self._output_head = MLP([self.hidden_dim, self.hidden_dim, 1], rng=self.rng)

        inputs, targets, _ = self._make_samples(train)
        if inputs.shape[0] > self.max_train_samples:
            idx = self._subsample_indices(inputs.shape[0], self.max_train_samples)
            inputs, targets = inputs[idx], targets[idx]

        self._run_trainer((inputs, targets), epochs=self.epochs,
                          batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

        # Robust normalisation statistics of the training errors (per sensor).
        self._adjacency = self._learn_graph()
        train_errors = self._per_sensor_errors(train)
        self._error_median = np.median(train_errors, axis=0)
        q75, q25 = np.percentile(train_errors, [75, 25], axis=0)
        self._error_iqr = np.maximum(q75 - q25, 1e-6)

    def _per_sensor_errors(self, series: np.ndarray) -> np.ndarray:
        inputs, targets, positions = self._make_samples(series)
        errors = np.zeros((series.shape[0], series.shape[1]))
        for start in range(0, inputs.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            prediction = self._forecast(inputs[chunk], self._adjacency).data
            errors[positions[chunk]] = np.abs(prediction - targets[chunk])
        if inputs.shape[0] > 0:
            errors[:positions[0]] = np.median(errors[positions], axis=0)
        return errors

    def _score(self, test: np.ndarray) -> np.ndarray:
        errors = self._per_sensor_errors(test)
        normalised = (errors - self._error_median) / self._error_iqr
        return normalised.max(axis=1)
