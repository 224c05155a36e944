"""The closed drift → fine-tune → publish → hot-swap loop.

:class:`AdaptationController` attaches to a running
:class:`~repro.serving.DetectorService` and closes the loop the serving and
training layers left open:

1. **Detect** — every :meth:`poll` pulls the scores each tenant's alarm scan
   pushed into the service's :class:`~repro.analytics.ScoreStore` and feeds
   them through a per-tenant :class:`~repro.adaptation.DriftMonitor` (drift
   rules vs the frozen training-tail :class:`~repro.adaptation.DriftReference`,
   edge-triggered through the analytics policy engine).
2. **Fine-tune** — on a ``drift`` edge the controller snapshots the recent
   span of the tenant's raw ring buffer, clones the serving detector from
   its checkpoint and runs :meth:`ImDiffusionDetector.fine_tune` on it
   (warm start, frozen scaler, budget + patience capped, ``num_workers``
   honored).  The clone fine-tunes on a *dedicated* random stream, so the
   serving detector's scoring stream is never consumed.
3. **Evaluate** — baseline and candidate are compared on the held-out tail
   slice of the snapshot under common random numbers
   (:meth:`ImDiffusionDetector.holdout_error` with a shared seed), a paired
   comparison.
4. **Publish + hot-swap** — the candidate is published to the
   :class:`~repro.serving.ModelRegistry` as the lineage's next version and
   swapped under the live service via the shared-memory generation counter
   (no worker restarts).
5. **Rollback** — if the candidate's held-out error regresses past
   ``regression_tolerance``, the pre-swap weights are restored bit-exactly.
   No scoring happens between swap and rollback (the service is
   single-threaded) and fine-tuning never touched the serving random
   stream, so a rolled-back stream is **bit-identical** to one that never
   swapped.

Every transition is counted in :class:`~repro.serving.ServiceMetrics`
(``drift_events``, ``adaptations_applied``, ``models_published``,
``rollbacks``, ``hot_swaps``) and recorded as an :class:`AdaptationRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core import ImDiffusionDetector
from ..core.modes import recommended_stride
from ..serving import DetectorService, ModelRegistry
from .detectors import DriftEvent, DriftMonitor, DriftReference, parse_drift_policy

__all__ = [
    "AdaptationConfig",
    "AdaptationRecord",
    "AdaptationController",
    "training_tail_reference",
]

#: Seed lanes of the adaptation loop, decoupled from the scoring stream.
_FINE_TUNE_LANE = 7919
_HOLDOUT_LANE = 6151


def training_tail_reference(detector: ImDiffusionDetector,
                            train: np.ndarray,
                            points: int = 256,
                            bins: int = 10) -> DriftReference:
    """Freeze a drift reference from the scores of the training tail.

    Scores the last ``points`` of the training series with a *checkpoint
    clone* of ``detector`` (so the serving detector's random stream is not
    consumed) and freezes the resulting final-step error distribution.
    This is the in-distribution yardstick every drift rule compares the
    live serving scores against.
    """
    train = np.asarray(train, dtype=np.float64)
    points = min(int(points), train.shape[0])
    if points < detector.config.window_size:
        raise ValueError("reference tail is shorter than one window")
    clone = ImDiffusionDetector.from_checkpoint(*detector.to_checkpoint())
    step_errors = clone.score(train[-points:])
    return DriftReference.from_scores(step_errors[max(step_errors)], bins=bins)


@dataclass
class AdaptationConfig:
    """Knobs of the online adaptation loop.

    ``policy`` is a drift expression or preset name (see
    :func:`repro.adaptation.parse_drift_policy`).  ``regression_tolerance``
    is the allowed *relative* held-out error increase before rollback
    (``0.05`` = candidate may be up to 5% worse); a negative tolerance
    forces every adaptation to roll back, which is how the tests and
    ``repro adapt --force-rollback`` exercise rollback bit-identity.
    """

    policy: str = "default"
    min_adapt_windows: int = 8          # fine-tune windows required to adapt
    adapt_epochs: int = 2               # fine-tune epoch budget
    patience: Optional[int] = None      # early-stopping patience (None = off)
    learning_rate: Optional[float] = None  # None = detector's configured LR
    holdout_fraction: float = 0.25      # snapshot tail held out for evaluation
    regression_tolerance: float = 0.05  # relative held-out regression allowed
    cooldown_points: int = 256          # per-tenant quiet span between adapts
    max_snapshot_points: int = 2048     # ring-buffer span snapshot bound
    num_workers: Optional[int] = None   # fine-tune gradient workers
    reference_points: int = 256         # training-tail scores in the reference
    reference_bins: int = 10            # PSI histogram bins of the reference

    def __post_init__(self) -> None:
        if self.min_adapt_windows < 1:
            raise ValueError("min_adapt_windows must be at least 1")
        if self.adapt_epochs < 1:
            raise ValueError("adapt_epochs must be at least 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.cooldown_points < 0:
            raise ValueError("cooldown_points must be non-negative")
        if self.max_snapshot_points < 1:
            raise ValueError("max_snapshot_points must be positive")


@dataclass(frozen=True)
class AdaptationRecord:
    """One resolved adaptation attempt (the loop's audit trail)."""

    tenant: str
    index: int                       # stream index of the triggering edge
    action: str                      # "adapted" | "rolled_back" | "skipped"
    version: Optional[int] = None    # registry version published (if any)
    base_error: float = float("nan")      # held-out error of the old model
    candidate_error: float = float("nan")  # held-out error of the candidate
    generation: int = 0              # parameter generation after the attempt
    detail: str = ""

    def describe(self) -> str:
        text = f"[{self.tenant}] {self.action} at t={self.index}"
        if self.version is not None:
            text += f" -> v{self.version}"
        if np.isfinite(self.base_error):
            text += (f" (held-out error {self.base_error:.6f} -> "
                     f"{self.candidate_error:.6f})")
        if self.detail:
            text += f": {self.detail}"
        return text


class AdaptationController:
    """Drive the drift→fine-tune→publish→hot-swap loop over a live service.

    The controller is single-threaded by design: call :meth:`poll` between
    ingest batches (``repro serve --adapt`` does this on every chunk).
    Because adaptation runs synchronously inside :meth:`poll`, no window is
    ever scored between a swap and its rollback — the foundation of the
    rollback bit-identity guarantee.

    Examples
    --------
    >>> controller = AdaptationController(
    ...     service, reference,
    ...     registry=registry, model_name="served",
    ...     config=AdaptationConfig(policy="sensitive"),
    ... )                                                  # doctest: +SKIP
    >>> service.ingest("tenant-0", chunk)                  # doctest: +SKIP
    >>> records = controller.poll()                        # doctest: +SKIP
    """

    def __init__(self, service: DetectorService, reference: DriftReference,
                 config: Optional[AdaptationConfig] = None,
                 registry: Optional[ModelRegistry] = None,
                 model_name: str = "served") -> None:
        self.service = service
        self.reference = reference
        self.config = config or AdaptationConfig()
        self.registry = registry
        self.model_name = model_name
        self.policy = parse_drift_policy(self.config.policy, reference,
                                         name="drift")
        self._monitors: Dict[str, DriftMonitor] = {}
        self._cursors: Dict[str, int] = {}
        self._cooldown_until: Dict[str, int] = {}
        self._rounds = 0
        self.history: List[AdaptationRecord] = []
        self.drift_events: List[DriftEvent] = []
        self.base_version: Optional[int] = None
        if registry is not None and registry.latest_version(model_name) is None:
            # Anchor the lineage: v1 is the model currently serving, so the
            # first adaptation publishes v2 and rollback targets are always
            # resolvable from the registry.
            self.base_version = registry.publish_version(
                model_name, service.scorer.detector,
                metadata={"source": "serving-baseline"})
            service.metrics.record_publish()
        elif registry is not None:
            self.base_version = registry.latest_version(model_name)

    # ------------------------------------------------------------------
    @property
    def active_version(self) -> Optional[int]:
        """The registry version currently serving (after swaps/rollbacks).

        Rolled-back and skipped attempts leave the serving weights exactly
        as they were, so the active version is the most recent *applied*
        adaptation — or the baseline when none stuck.
        """
        for record in reversed(self.history):
            if record.action == "adapted" and record.version is not None:
                return record.version
        return self.base_version

    # ------------------------------------------------------------------
    def poll(self) -> List[AdaptationRecord]:
        """Consume fresh served scores; adapt on confirmed drift edges.

        Pulls every tenant's scores from the service's analytics store
        (from the per-tenant cursor to the watermark), advances the drift
        monitors, and runs the full fine-tune→evaluate→publish→swap(-or-
        rollback) sequence for each rising edge.  Returns the adaptation
        records produced by this poll.
        """
        records: List[AdaptationRecord] = []
        store = self.service.analytics.store
        for tenant in store.tenants():
            monitor = self._monitors.get(tenant)
            if monitor is None:
                monitor = self._monitors[tenant] = DriftMonitor(self.policy,
                                                                tenant)
            watermark = store.watermark(tenant)
            cursor = self._cursors.get(tenant, 0)
            if watermark <= cursor:
                continue
            stream = store.view(tenant, cursor, watermark)
            self._cursors[tenant] = watermark
            for offset, score in enumerate(stream.scores):
                index = stream.start + offset
                for event in monitor.update(index, float(score)):
                    self.drift_events.append(event)
                    self.service.metrics.record_drift(event)
                    if event.kind != "drift":
                        continue
                    record = self._adapt(tenant, index)
                    records.append(record)
                    if record.action != "skipped":
                        # Re-arm against the post-swap score distribution.
                        monitor.reset()
        return records

    # ------------------------------------------------------------------
    def _skip(self, tenant: str, index: int, reason: str) -> AdaptationRecord:
        record = AdaptationRecord(tenant=tenant, index=index, action="skipped",
                                  detail=reason)
        self.history.append(record)
        self.service.metrics.record_adaptation("skipped")
        return record

    def _adapt(self, tenant: str, index: int) -> AdaptationRecord:
        config = self.config
        service = self.service
        scorer = service.scorer
        detector = scorer.detector
        window = scorer.window_size

        if index < self._cooldown_until.get(tenant, 0):
            return self._skip(tenant, index, "cooldown")

        snapshot = scorer.raw_tail(tenant, config.max_snapshot_points)
        holdout_points = max(window,
                             int(round(snapshot.shape[0]
                                       * config.holdout_fraction)))
        tune = snapshot[:-holdout_points]
        holdout = snapshot[-holdout_points:]
        stride = detector.config.train_stride or recommended_stride(
            detector.config)
        if tune.shape[0] < window:
            tune_windows = 0
        else:
            tune_windows = 1 + (tune.shape[0] - window) // stride
        if tune_windows < config.min_adapt_windows:
            return self._skip(
                tenant, index,
                f"{tune_windows} buffered fine-tune windows < "
                f"min_adapt_windows={config.min_adapt_windows}")

        # Warm-start candidate from the serving checkpoint.  The checkpoint
        # arrays double as the bit-exact rollback target.
        baseline_arrays, baseline_metadata = detector.to_checkpoint()
        candidate = ImDiffusionDetector.from_checkpoint(baseline_arrays,
                                                        baseline_metadata)
        round_index = self._rounds + 1
        candidate.fine_tune(
            tune,
            epochs=config.adapt_epochs,
            learning_rate=config.learning_rate,
            num_workers=config.num_workers,
            patience=config.patience,
            seed=detector.config.seed + _FINE_TUNE_LANE * round_index,
        )

        # Paired held-out comparison under common random numbers.
        eval_seed = detector.config.seed + _HOLDOUT_LANE * round_index
        base_error = detector.holdout_error(holdout, seed=eval_seed)
        candidate_error = candidate.holdout_error(holdout, seed=eval_seed)

        version = None
        if self.registry is not None:
            version = self.registry.publish_version(
                self.model_name, candidate,
                metadata={
                    "source": "adaptation",
                    "tenant": tenant,
                    "trigger_index": int(index),
                    "base_error": float(base_error),
                    "candidate_error": float(candidate_error),
                })
            service.metrics.record_publish()

        generation = service.hot_swap(candidate)
        regressed = candidate_error > ((1.0 + config.regression_tolerance)
                                       * base_error)
        if regressed:
            rollback = ImDiffusionDetector.from_checkpoint(baseline_arrays,
                                                           baseline_metadata)
            generation = service.hot_swap(rollback)
            action = "rolled_back"
            detail = (f"held-out error regressed past tolerance "
                      f"{config.regression_tolerance:+.2f}")
        else:
            action = "adapted"
            detail = f"fine-tuned on {tune_windows} windows"

        self._rounds = round_index
        self._cooldown_until[tenant] = index + config.cooldown_points
        record = AdaptationRecord(
            tenant=tenant, index=index, action=action, version=version,
            base_error=float(base_error),
            candidate_error=float(candidate_error),
            generation=int(generation), detail=detail)
        self.history.append(record)
        service.metrics.record_adaptation(action)
        return record

    # ------------------------------------------------------------------
    def rollback_to(self, version: int) -> int:
        """Manually restore a published registry version under the service.

        Loads ``model_name`` version ``version`` from the registry and
        hot-swaps it in.  Raises ``KeyError`` (and leaves the serving
        weights untouched) when that version's checkpoint no longer exists —
        the deleted-checkpoint edge case of the hot-swap tests.
        """
        if self.registry is None:
            raise ValueError("rollback_to requires a registry")
        restored = self.registry.load_version(self.model_name, version)
        return self.service.hot_swap(restored)
