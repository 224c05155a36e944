"""End-to-end drift scenarios: the adaptation loop's standard stress suite.

:func:`run_drift_scenario` serves one registry dataset (the DRIFT/REGIME/
SEASONAL generator family is the intended input) through two *identically
configured* passes over the same trained model:

* a **frozen** pass — the model that was trained before the distribution
  moved keeps serving unchanged, and
* an **adapted** pass — an :class:`~repro.adaptation.AdaptationController`
  polls between ingest chunks, detects the shift, fine-tunes, publishes and
  hot-swaps live.

Both passes stream the same points through the same serving configuration
from clones of the same checkpoint, so their scores are directly (indeed
bitwise, until the first swap) comparable; accuracy is evaluated on the
post-drift tail where they diverge.  With a negative
``regression_tolerance`` every adaptation is forced to roll back, and the
scenario's ``bit_identical`` flag asserts the central guarantee: a stream
that swapped and rolled back is **bitwise equal** to one that never swapped.

``repro adapt`` is a thin CLI veneer over this function, and
``tests/adaptation/test_adaptation_controller.py`` gates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core import ImDiffusionConfig, ImDiffusionDetector
from ..data import load_dataset
from ..evaluation import evaluate_labels
from ..serving import DetectorService, ModelRegistry, ServingConfig
from .controller import (
    AdaptationConfig,
    AdaptationController,
    AdaptationRecord,
    training_tail_reference,
)
from .detectors import DriftEvent

__all__ = ["DriftScenarioResult", "run_drift_scenario"]

_TENANT = "tenant-0"


@dataclass
class DriftScenarioResult:
    """Outcome of one frozen-vs-adapted drift scenario."""

    dataset: str
    post_drift_start: int               # first index of the evaluation tail
    frozen: dict                        # precision/recall/f1 on the tail
    adapted: dict                       # same, for the adapted pass
    records: List[AdaptationRecord]     # the controller's audit trail
    events: List[DriftEvent]            # every drift edge observed
    bit_identical: bool                 # adapted scores == frozen scores
    frozen_scores: np.ndarray
    adapted_scores: np.ndarray
    metrics: Dict[str, float] = field(default_factory=dict)  # adapted pass

    def summary_lines(self) -> List[str]:
        """Human-readable report (shared by the CLI and the benchmark)."""
        lines = [
            f"Drift scenario on {self.dataset} "
            f"(post-drift tail from t={self.post_drift_start}):",
            f"  frozen  model: precision {self.frozen['precision']:.3f} "
            f"recall {self.frozen['recall']:.3f} f1 {self.frozen['f1']:.3f}",
            f"  adapted model: precision {self.adapted['precision']:.3f} "
            f"recall {self.adapted['recall']:.3f} f1 {self.adapted['f1']:.3f}",
            f"  drift events: {len([e for e in self.events if e.kind == 'drift'])}, "
            f"adaptations: "
            f"{len([r for r in self.records if r.action == 'adapted'])}, "
            f"rollbacks: "
            f"{len([r for r in self.records if r.action == 'rolled_back'])}, "
            f"skipped: "
            f"{len([r for r in self.records if r.action == 'skipped'])}",
        ]
        for record in self.records:
            lines.append(f"  {record.describe()}")
        return lines


def _serve_stream(detector: ImDiffusionDetector, test: np.ndarray,
                  serving: ServingConfig, ingest_chunk: int,
                  controller_factory=None):
    """Stream ``test`` through a fresh service; returns (view, controller)."""
    service = DetectorService(detector, serving)
    service.register_tenant(_TENANT)
    controller = controller_factory(service) if controller_factory else None
    with service:
        for start in range(0, test.shape[0], ingest_chunk):
            service.ingest(_TENANT, test[start:start + ingest_chunk])
            if controller is not None:
                controller.poll()
        service.drain()
        if controller is not None:
            controller.poll()
        view = service.tenant_view(_TENANT)
        snapshot = service.metrics.snapshot()
    return view, controller, snapshot


def run_drift_scenario(dataset: str = "DRIFT", scale: float = 0.05,
                       seed: int = 0,
                       overrides: Optional[dict] = None,
                       adaptation: Optional[AdaptationConfig] = None,
                       score_workers: int = 1,
                       registry: Optional[ModelRegistry] = None,
                       model_name: str = "drift-demo",
                       train_fraction: float = 0.45,
                       tail_fraction: float = 0.5,
                       ingest_chunk: int = 32) -> DriftScenarioResult:
    """Serve one drifting dataset frozen and adapted; compare tail accuracy.

    Parameters
    ----------
    dataset:
        A registered dataset name; the DRIFT/REGIME/SEASONAL generators are
        the canonical stress scenarios.
    scale:
        Length multiplier forwarded to :func:`repro.data.load_dataset`.
    overrides:
        :class:`~repro.core.ImDiffusionConfig` overrides for the shared
        model (the scenario defaults are CPU-friendly).
    adaptation:
        The :class:`AdaptationConfig` of the adapted pass.  A negative
        ``regression_tolerance`` turns the scenario into the forced-rollback
        bit-identity check.
    registry:
        When given, the adapted pass publishes its lineage (baseline + every
        candidate) there as ``model_name`` versions.
    train_fraction:
        Fit on only this leading fraction of the training series.  The DRIFT
        generators ramp their drift over each series, so training on the
        early slice leaves the stream's later drift levels genuinely
        out-of-distribution for the frozen model — the regime online
        adaptation exists for.
    tail_fraction:
        Final fraction of the test stream treated as "post-drift" for the
        accuracy comparison.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must be in (0, 1]")
    data = load_dataset(dataset, seed=seed, scale=scale)
    config = ImDiffusionConfig(**{
        "window_size": 16, "num_steps": 8, "epochs": 2, "hidden_dim": 16,
        "num_blocks": 1, "num_masked_windows": 4, "num_unmasked_windows": 4,
        "max_train_windows": 48, "train_stride": 8, "batch_size": 8,
        "deterministic_inference": True, "collect": "x0",
        "error_percentile": 96.0, "seed": seed,
        **(overrides or {}),
    })
    adaptation = adaptation or AdaptationConfig()

    train = np.asarray(data.train, dtype=np.float64)
    train = train[:max(int(round(train.shape[0] * train_fraction)),
                       2 * config.window_size)]

    detector = ImDiffusionDetector(config)
    detector.fit(train)
    checkpoint = detector.to_checkpoint()
    reference = training_tail_reference(
        detector, train, points=adaptation.reference_points,
        bins=adaptation.reference_bins)

    test = np.asarray(data.test, dtype=np.float64)
    labels = np.asarray(data.test_labels)
    serving = ServingConfig(
        flush_size=4, flush_age=3600.0, history=test.shape[0],
        raw_capacity=max(test.shape[0], 4 * config.window_size),
        analytics_history=test.shape[0], score_workers=score_workers)

    frozen_view, _, _ = _serve_stream(
        ImDiffusionDetector.from_checkpoint(*checkpoint), test, serving,
        ingest_chunk)

    def controller_factory(service: DetectorService) -> AdaptationController:
        return AdaptationController(service, reference, config=adaptation,
                                    registry=registry, model_name=model_name)

    adapted_view, controller, adapted_metrics = _serve_stream(
        ImDiffusionDetector.from_checkpoint(*checkpoint), test, serving,
        ingest_chunk, controller_factory)

    tail_start = int(round(test.shape[0] * (1.0 - tail_fraction)))
    tail_start = min(max(tail_start, frozen_view.start), test.shape[0] - 1)

    def tail_metrics(view) -> dict:
        start, view_labels, view_scores = view.slice_from(tail_start)
        end = min(view.end, labels.shape[0])
        span = end - start
        truth = labels[start:end]
        run = evaluate_labels(view_labels[:span], view_scores[:span], truth)
        return {"precision": float(run.precision),
                "recall": float(run.recall), "f1": float(run.f1)}

    bit_identical = (
        frozen_view.start == adapted_view.start
        and frozen_view.end == adapted_view.end
        and np.array_equal(frozen_view.scores, adapted_view.scores,
                           equal_nan=True))

    return DriftScenarioResult(
        dataset=data.name,
        post_drift_start=tail_start,
        frozen=tail_metrics(frozen_view),
        adapted=tail_metrics(adapted_view),
        records=list(controller.history),
        events=list(controller.drift_events),
        bit_identical=bool(bit_identical),
        frozen_scores=np.asarray(frozen_view.scores),
        adapted_scores=np.asarray(adapted_view.scores),
        metrics=adapted_metrics,
    )
