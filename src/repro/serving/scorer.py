"""Incremental scoring on top of a fitted :class:`ImDiffusionDetector`.

The offline detector re-scores whatever series it is handed, so a naive
online loop that calls ``predict`` on the full history does O(n) model work
per poll — O(n²) over the stream.  :class:`IncrementalScorer` instead keeps a
bounded per-tenant cache of per-step imputation errors and only runs the
denoiser over the *new tail* of each tenant's stream:

* new points accumulate in a bounded raw ring buffer,
* once a full detection window of unscored points exists the window is scored
  (optionally batched across tenants by the micro-batcher) and its per-step
  errors are merged into the tenant's score cache,
* anomaly labels are re-derived from the cached errors with the same ensemble
  voting mechanism the offline detector uses, evaluated over the bounded
  cache instead of the full history.

Amortised work per new point is O(window) model time, independent of how long
the stream has been running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import ImDiffusionDetector
from ..core.detector import ImputationScoreSpec
from ..core.ensemble import EnsembleVoter
from ..core.modes import build_masks
from ..inference import ScoreReducer, SerialScoreReducer
from .buffers import RingBuffer

__all__ = ["PendingWindow", "ScoreView", "IncrementalScorer"]


@dataclass(frozen=True)
class PendingWindow:
    """One detection window awaiting a denoiser pass."""

    tenant: str
    start: int           # absolute index of the window's first timestamp
    window: np.ndarray   # scaled values, shape (window_size, num_features)


@dataclass
class ScoreView:
    """Current labels/scores for the retained span of one tenant's stream."""

    start: int
    end: int
    labels: np.ndarray
    scores: np.ndarray

    def label_at(self, abs_index: int) -> int:
        return int(self.labels[abs_index - self.start])

    def score_at(self, abs_index: int) -> float:
        return float(self.scores[abs_index - self.start])

    def slice_from(self, abs_index: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(start, labels, scores)`` from ``abs_index`` to the view's end.

        The vectorized form of walking ``label_at``/``score_at`` point by
        point — this is what the service's alarm scan and the analytics
        feed consume per fresh span.  ``abs_index`` below the view start
        clamps to the start.
        """
        lo = max(int(abs_index), self.start) - self.start
        return self.start + lo, self.labels[lo:], self.scores[lo:]


class _TenantState:
    def __init__(self, raw_capacity: int, score_capacity: int,
                 num_features: int, num_steps: int) -> None:
        self.raw = RingBuffer(raw_capacity, num_features)
        self.scores = RingBuffer(score_capacity, num_steps)
        self.emitted_until = 0   # absolute index: windows formed up to here
        self.dropped_points = 0  # unscored points lost to raw-buffer eviction
        self.valid_from = 0      # first index with real (non-gap-fill) scores


class IncrementalScorer:
    """Score per-tenant telemetry streams incrementally with a shared detector.

    Parameters
    ----------
    detector:
        A *fitted* :class:`ImDiffusionDetector` (e.g. loaded from the
        :class:`~repro.serving.registry.ModelRegistry`), shared by all tenants.
    history:
        Capacity of the per-tenant score cache — the sliding evaluation
        buffer over which thresholds and ensemble votes are computed.
    raw_capacity:
        Capacity of the per-tenant raw ring buffer; defaults to
        ``max(history, 4 * window_size)``.
    reducer:
        The :class:`~repro.inference.ScoreReducer` executing the batched
        denoiser passes.  Defaults to an in-process
        :class:`~repro.inference.SerialScoreReducer`; the service passes a
        :class:`~repro.inference.MultiprocessScoreReducer` when configured
        with ``score_workers > 1``.  By the reducer determinism contract the
        scores are identical either way.  The scorer owns the reducer it is
        handed: :meth:`close` releases it.
    """

    def __init__(self, detector: ImDiffusionDetector, history: int = 1024,
                 raw_capacity: Optional[int] = None,
                 reducer: Optional[ScoreReducer] = None) -> None:
        if not detector.is_fitted:
            raise ValueError("IncrementalScorer requires a fitted detector")
        self.detector = detector
        config = detector.config
        self.window_size = config.window_size
        # Width of the per-tenant score cache: one column per *collected*
        # denoising step.  Under a strided sampler this is the trajectory
        # length, not the schedule's nominal T.
        self.num_steps = config.inference_steps
        self.num_features = int(detector.num_features)
        self.history = int(history)
        if self.history < self.window_size:
            raise ValueError("history must be at least one window long")
        self.raw_capacity = int(raw_capacity or max(self.history, 4 * self.window_size))
        if self.raw_capacity < self.window_size:
            raise ValueError("raw_capacity must be at least one window long")
        self._masks = build_masks(config, self.window_size, self.num_features)
        # Serving is inference-only: flip the shared denoiser to eval mode
        # once so every batched pass runs with deterministic layers and
        # (together with the impute-level no_grad) a graph-free hot path.
        detector._imputer.model.eval()
        # open() eagerly so a multiprocess reducer pays its spawn cost at
        # service start-up, not on the first tenant's first flush.
        self._reducer = reducer if reducer is not None else SerialScoreReducer(
            ImputationScoreSpec(detector))
        self._reducer.open()
        self._voter = EnsembleVoter(
            error_percentile=config.error_percentile,
            vote_fraction=config.vote_fraction,
            step_stride=config.vote_step_stride,
            last_fraction=config.vote_last_fraction,
        )
        self._tenants: Dict[str, _TenantState] = {}

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str) -> None:
        if tenant in self._tenants:
            raise ValueError(f"tenant {tenant!r} already registered")
        self._tenants[tenant] = _TenantState(
            self.raw_capacity, self.history, self.num_features, self.num_steps)

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def is_registered(self, tenant: str) -> bool:
        return tenant in self._tenants

    def _state(self, tenant: str) -> _TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}; register_tenant first") from None

    def total(self, tenant: str) -> int:
        """Absolute number of points the tenant has ever ingested."""
        return self._state(tenant).raw.end_index

    def scored_until(self, tenant: str) -> int:
        """Absolute index up to which scores exist."""
        return self._state(tenant).scores.end_index

    def dropped_points(self, tenant: str) -> int:
        return self._state(tenant).dropped_points

    def buffered_points(self, tenant: str) -> int:
        """Raw points currently retained in the tenant's ring buffer."""
        return self._state(tenant).raw.size

    def raw_tail(self, tenant: str, count: int) -> np.ndarray:
        """Copy of the newest ``count`` retained *unscaled* raw points.

        This is the adaptation controller's window-snapshot hook: on a
        confirmed drift event it grabs the recent span of the tenant's ring
        buffer as fine-tuning data.  Returns at most the retained size.
        """
        ring = self._state(tenant).raw
        count = min(int(count), ring.size)
        return np.array(ring.view(ring.end_index - count, ring.end_index))

    # ------------------------------------------------------------------
    # Ingestion and window formation
    # ------------------------------------------------------------------
    def ingest(self, tenant: str, points: np.ndarray) -> int:
        """Append raw points to the tenant's stream; returns evicted row count."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {points.shape[1]}")
        return self._state(tenant).raw.append(points)

    def scale(self, points: np.ndarray) -> np.ndarray:
        """Apply the detector's training-time standardisation."""
        return self.detector._scaler.transform(points)

    def pending_windows(self, tenant: str, anchor_tail: bool = False) -> List[PendingWindow]:
        """Windows of not-yet-scored points, ready for a denoiser pass.

        Complete non-overlapping windows are emitted from the unscored
        boundary onward.  With ``anchor_tail`` a final window anchored at the
        end of the stream is added when a partial window of unscored points
        remains (the serving analogue of the anchored final window of
        :func:`repro.data.windows.window_starts`), re-scoring the overlap.
        """
        state = self._state(tenant)
        window = self.window_size
        total = state.raw.end_index
        if state.emitted_until < state.raw.start_index:
            state.dropped_points += state.raw.start_index - state.emitted_until
            state.emitted_until = state.raw.start_index
        pending: List[PendingWindow] = []
        while state.emitted_until + window <= total:
            start = state.emitted_until
            values = self.scale(state.raw.view(start, start + window))
            pending.append(PendingWindow(tenant=tenant, start=start, window=values))
            state.emitted_until = start + window
        if anchor_tail and state.emitted_until < total and total >= window:
            start = total - window
            values = self.scale(state.raw.view(start, start + window))
            pending.append(PendingWindow(tenant=tenant, start=start, window=values))
            state.emitted_until = total
        return pending

    # ------------------------------------------------------------------
    # Batched denoiser scoring
    # ------------------------------------------------------------------
    def score_window_batch(self, windows: np.ndarray,
                           rng: Optional[np.random.Generator] = None
                           ) -> Dict[int, np.ndarray]:
        """Per-step imputation errors for a batch of (scaled) windows.

        This is the coalesced denoiser call issued by the micro-batcher:
        ``windows`` may mix windows from many tenants.  Returns a mapping
        ``progress -> errors`` with ``errors`` of shape ``(batch, window)``,
        computed exactly as :meth:`ImDiffusionDetector.score` computes them
        for non-overlapping windows (same mask policies, same chunking, same
        draw order from the generator).  The pass inherits the detector's
        inference engine: grad-free denoiser calls and the configured
        reverse sampler (``progress`` indexes visited steps, 1 = noisiest).

        The denoiser work itself runs through the scorer's
        :class:`~repro.inference.ScoreReducer` — in-process by default,
        fanned out across scoring workers when the service is configured
        with ``score_workers > 1`` — with identical results either way.
        """
        detector = self.detector
        rng = rng if rng is not None else detector._rng
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3 or windows.shape[1:] != (self.window_size, self.num_features):
            raise ValueError(
                f"expected windows of shape (batch, {self.window_size}, "
                f"{self.num_features}), got {windows.shape}")

        batch = windows.shape[0]
        num_steps = self.num_steps
        error_sum = self._reducer.window_errors(windows, rng)
        for k in range(1, num_steps + 1):
            # An empty batch produces an empty task plan; keep the full
            # progress -> errors contract regardless.
            if k not in error_sum:
                error_sum[k] = np.zeros((batch, self.window_size, self.num_features))

        masked_count = np.zeros((self.window_size, self.num_features))
        for mask in self._masks:
            masked_count += 1.0 - mask

        coverage = np.maximum(masked_count.sum(axis=1), 1.0)  # (window,)
        return {progress: totals.sum(axis=2) / coverage
                for progress, totals in error_sum.items()}

    # ------------------------------------------------------------------
    # Merging and decisions
    # ------------------------------------------------------------------
    def merge(self, tenant: str, start: int,
              step_errors: Dict[int, np.ndarray]) -> None:
        """Merge one scored window's per-step errors into the tenant cache.

        ``step_errors`` maps denoising progress ``k`` to a ``(window,)`` error
        array.  Overlapping positions (anchored tail windows) are overwritten
        with the fresher scores.
        """
        rows = np.stack(
            [np.asarray(step_errors[k], dtype=np.float64)
             for k in range(1, self.num_steps + 1)], axis=1)
        state = self._state(tenant)
        if start > state.scores.end_index:
            # A span was evicted before it could be scored; the ring zero-fills
            # the gap, but those rows are not evidence — exclude them from
            # threshold/vote computation.
            state.valid_from = start
        state.scores.write_at(start, rows)

    def score_pending(self, tenant: str, anchor_tail: bool = False,
                      rng: Optional[np.random.Generator] = None) -> int:
        """Score all pending windows of one tenant directly (no micro-batching).

        Returns the number of windows scored.  This is the path the online
        evaluation harness uses; the multi-tenant service routes windows
        through the :class:`~repro.serving.batcher.MicroBatcher` instead.
        """
        pending = self.pending_windows(tenant, anchor_tail=anchor_tail)
        if not pending:
            return 0
        stacked = np.stack([p.window for p in pending])
        batch_errors = self.score_window_batch(stacked, rng=rng)
        for i, request in enumerate(pending):
            self.merge(tenant, request.start,
                       {k: batch_errors[k][i] for k in batch_errors})
        return len(pending)

    def decide(self, tenant: str) -> ScoreView:
        """Labels and final-step scores over the tenant's retained score cache.

        Thresholds and ensemble votes are recomputed over the bounded cache,
        mirroring the production monitor that re-evaluates alarms on a sliding
        evaluation buffer at every poll.
        """
        state = self._state(tenant)
        cache = state.scores
        lo = max(cache.start_index, state.valid_from)
        view = cache.view(lo, cache.end_index)
        if view.shape[0] == 0:
            empty = np.empty(0)
            return ScoreView(start=cache.end_index, end=cache.end_index,
                             labels=empty.astype(np.int64), scores=empty)
        step_errors = {k: view[:, k - 1] for k in range(1, self.num_steps + 1)}
        if self.detector.config.ensemble:
            labels = self._voter.vote(step_errors).labels
        else:
            labels = self._voter.single_step_labels(step_errors)
        return ScoreView(
            start=lo,
            end=cache.end_index,
            labels=labels,
            scores=view[:, self.num_steps - 1],
        )

    # ------------------------------------------------------------------
    # Hot weight swap
    # ------------------------------------------------------------------
    def swap_detector(self, source: ImDiffusionDetector) -> int:
        """Copy ``source``'s weights into the serving detector, in place.

        The serving swap of the adaptation loop: denoiser parameters and
        scaler statistics are copied **into the existing arrays** (object
        identity is preserved, so every live reference — score specs,
        shared-memory publishers — sees the new values), then a
        multiprocess reducer re-publishes to its shared block, bumping the
        generation counter so scoring workers pick the new weights up on
        their next task *without restarting*.  Returns the new parameter
        generation (0 for the in-process serial reducer).

        ``source`` must be scoring-compatible: same feature count, window
        size and sampler trajectory length (the per-tenant score caches are
        keyed by collected denoising step).  Tenant buffers, score caches
        and the detector's random stream are untouched — swapping in a
        bitwise-equal copy of the current weights leaves every future score
        bit-identical, which is what makes rollback exact.
        """
        if not source.is_fitted:
            raise ValueError("swap_detector requires a fitted source detector")
        if int(source.num_features) != self.num_features:
            raise ValueError(
                f"feature mismatch: serving {self.num_features}, "
                f"source {source.num_features}")
        if source.config.window_size != self.window_size:
            raise ValueError(
                f"window mismatch: serving {self.window_size}, "
                f"source {source.config.window_size}")
        if source.config.inference_steps != self.num_steps:
            raise ValueError(
                f"trajectory mismatch: serving collects {self.num_steps} "
                f"steps, source collects {source.config.inference_steps}")
        target = dict(self.detector._imputer.model.named_parameters())
        replacement = source._imputer.model.state_dict()
        if set(target) != set(replacement):
            raise ValueError("architecture mismatch: parameter names differ")
        for name, parameter in target.items():
            value = np.asarray(replacement[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {parameter.data.shape} "
                    f"but source provides {value.shape}")
        for name, parameter in target.items():
            np.copyto(parameter.data, np.asarray(replacement[name],
                                                 dtype=np.float64))
        np.copyto(self.detector._scaler.mean_,
                  np.asarray(source._scaler.mean_, dtype=np.float64))
        np.copyto(self.detector._scaler.std_,
                  np.asarray(source._scaler.std_, dtype=np.float64))
        return self._reducer.refresh_parameters()

    @property
    def parameter_generation(self) -> int:
        """Generation of the published parameter snapshot (0 when serial)."""
        return self._reducer.generation

    @property
    def worker_pids(self) -> list:
        """PIDs of the score worker processes (empty for the serial reducer)."""
        return self._reducer.worker_pids

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the score reducer (worker pool, shared memory); idempotent."""
        self._reducer.close()

    def __enter__(self) -> "IncrementalScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
