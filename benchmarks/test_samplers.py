"""Sampler zoo: the accuracy-vs-NFE frontier.

One detector is trained once, then scored with the full trajectory and with
every subsequence sampler (strided / DDIM / PNDM) at several step budgets.
The gate requires at least one frontier point with **>= 4x fewer denoiser
calls** (NFE) whose F1 stays within 1% of the full sampler.  This is a
quality claim; the samplers' bit-identities are tier-1 tests
(``tests/test_sampler_zoo.py``) and their speed is measured by perfbench.
"""

from __future__ import annotations

import copy

import numpy as np

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.data import load_dataset
from repro.evaluation import evaluate_labels

from ._helpers import print_header, run_once

SCALE = 0.08
DATASET = "SMD"
NUM_STEPS = 20
F1_TOLERANCE = 0.01

#: The frontier: every zoo sampler at a ladder of denoiser-call budgets.
#: ``num_steps // 4`` is the gated >= 4x point.
FRONTIER = [
    ("strided", {"num_inference_steps": NUM_STEPS // 2}),
    ("strided", {"num_inference_steps": NUM_STEPS // 4}),
    ("ddim", {"num_inference_steps": NUM_STEPS // 2}),
    ("ddim", {"num_inference_steps": NUM_STEPS // 4}),
    ("ddim", {"num_inference_steps": NUM_STEPS // 4, "stride_spacing": "quadratic"}),
    ("pndm", {"num_inference_steps": NUM_STEPS // 2}),
    ("pndm", {"num_inference_steps": NUM_STEPS // 4}),
]


def _zoo_config(**overrides) -> ImDiffusionConfig:
    base = dict(
        window_size=32, num_steps=NUM_STEPS, epochs=4, hidden_dim=24,
        num_blocks=1, num_heads=2, batch_size=8, max_train_windows=48,
        train_stride=12, num_masked_windows=4, num_unmasked_windows=4,
        error_percentile=96.0, deterministic_inference=True, collect="x0",
        early_stopping_patience=2, validation_fraction=0.2, seed=0)
    base.update(overrides)
    return ImDiffusionConfig(**base)


def _nfe(config: ImDiffusionConfig) -> int:
    """Denoiser calls per scored window: the reverse-trajectory length."""
    return len(config.build_sampler().trajectory(config.num_steps))


def _scored_f1(fitted: ImDiffusionDetector, dataset, **overrides):
    detector = copy.deepcopy(fitted)
    detector.config = detector.config.with_overrides(**overrides)
    prediction = detector.predict(dataset.test)
    metrics = evaluate_labels(np.asarray(prediction.labels),
                              np.asarray(prediction.scores),
                              dataset.test_labels)
    return metrics.f1, _nfe(detector.config)


def test_accuracy_vs_nfe_frontier(benchmark):
    """>= 4x fewer denoiser calls must keep F1 within 1% of the full sampler."""
    dataset = load_dataset(DATASET, seed=0, scale=SCALE)

    def run():
        fitted = ImDiffusionDetector(_zoo_config()).fit(dataset.train)
        full_f1, full_nfe = _scored_f1(fitted, dataset)
        points = []
        for sampler, knobs in FRONTIER:
            f1, nfe = _scored_f1(fitted, dataset, sampler=sampler, **knobs)
            points.append({"sampler": sampler, "knobs": knobs, "nfe": nfe,
                           "f1": f1, "nfe_reduction": full_nfe / nfe})
        return full_f1, full_nfe, points

    full_f1, full_nfe, points = run_once(benchmark, run)

    print_header(f"Sampler zoo: accuracy-vs-NFE frontier "
                 f"({DATASET} @ scale {SCALE}, T={NUM_STEPS})")
    print(f"{'sampler':<10} {'knobs':<48} {'NFE':>4} {'F1':>7} {'dF1':>8}")
    print(f"{'full':<10} {'':<48} {full_nfe:>4} {full_f1:>7.4f} {0.0:>8.4f}")
    for point in points:
        knobs = ", ".join(f"{k}={v}" for k, v in point["knobs"].items())
        print(f"{point['sampler']:<10} {knobs:<48} {point['nfe']:>4} "
              f"{point['f1']:>7.4f} {point['f1'] - full_f1:>8.4f}")

    gated = [p for p in points
             if p["nfe_reduction"] >= 4.0 and p["f1"] >= full_f1 - F1_TOLERANCE]
    assert gated, (
        f"no frontier point achieves >= 4x fewer denoiser calls within "
        f"{F1_TOLERANCE} F1 of the full sampler (full F1 {full_f1:.4f}); "
        f"frontier: {[(p['sampler'], p['nfe'], round(p['f1'], 4)) for p in points]}")
    best = max(gated, key=lambda p: p["nfe_reduction"])
    print(f"\ngated point: {best['sampler']} at NFE {best['nfe']} "
          f"({best['nfe_reduction']:.1f}x fewer calls, F1 {best['f1']:.4f} "
          f"vs full {full_f1:.4f})")
