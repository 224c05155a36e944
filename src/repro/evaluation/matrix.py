"""Benchmark matrix runner: detectors × datasets × samplers × workers.

One entry point, :func:`run_bench_matrix`, sweeps the full cross product and
funnels every cell through :func:`~repro.evaluation.evaluate_detector`, so a
matrix cell reports exactly the metrics the paper-protocol harness reports.
Cells a detector cannot honour are not silently collapsed: a baseline has no
diffusion sampler knob, and a detector without a
:class:`~repro.training.ParallelLossSpec` cannot shard its gradients — such
cells land in the result marked ``skipped`` with the detector's own reason,
so the matrix always has ``|detectors| x |datasets| x |samplers| x |workers|``
entries.

The result serialises to a single schema-versioned ``BENCH_matrix.json``
(:func:`write_bench_matrix`), the file ``repro bench --output`` writes.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .runner import EvaluationSummary, evaluate_detector

__all__ = ["BENCH_SCHEMA_VERSION", "BenchCell", "bench_detector_factory",
           "run_bench_matrix", "write_bench_matrix", "format_bench_matrix"]

#: Version of the ``BENCH_matrix.json`` layout.  Bump on any breaking change
#: to the serialised structure so downstream consumers can dispatch.
BENCH_SCHEMA_VERSION = 1


@dataclass
class BenchCell:
    """One point of the benchmark matrix."""

    detector: str
    dataset: str
    sampler: str
    num_workers: int
    summary: Optional[EvaluationSummary] = None
    skipped: bool = False
    skip_reason: Optional[str] = None

    def as_dict(self) -> Dict:
        return {
            "detector": self.detector,
            "dataset": self.dataset,
            "sampler": self.sampler,
            "num_workers": self.num_workers,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "metrics": self.summary.as_dict() if self.summary is not None else None,
        }


def bench_detector_factory(name: str, seed: int):
    """Build a bench-sized detector by registry name.

    ``ImDiffusion`` gets a small config; baselines come from
    :data:`~repro.baselines.BASELINE_REGISTRY` with their budget knobs
    (epochs, window caps) turned down to bench scale when they take them.
    Override with the ``detector_factory`` argument of
    :func:`run_bench_matrix` for full-size sweeps.
    """
    if name == "ImDiffusion":
        from .. import ImDiffusionConfig, ImDiffusionDetector

        return ImDiffusionDetector(ImDiffusionConfig(
            window_size=16, num_steps=6, epochs=2, hidden_dim=16,
            num_blocks=1, num_heads=2, max_train_windows=32, train_stride=8,
            seed=seed))
    from ..baselines import BASELINE_REGISTRY

    if name not in BASELINE_REGISTRY:
        raise KeyError(f"unknown detector {name!r}; available: ImDiffusion, "
                       f"{', '.join(BASELINE_REGISTRY)}")
    factory = BASELINE_REGISTRY[name]
    kwargs = {"seed": seed}
    signature = inspect.signature(factory)
    for knob, value in (("window_size", 16), ("epochs", 2),
                        ("max_train_windows", 32), ("max_train_samples", 64),
                        ("num_trees", 16)):
        if knob in signature.parameters:
            kwargs[knob] = value
    return factory(**kwargs)


def _cell_skip_reason(probe, sampler: str, first_sampler: str,
                      num_workers: int) -> Optional[str]:
    """Why a detector cannot run a cell, or ``None`` if it can.

    Samplers only vary the diffusion inference engine, so detectors without
    an engine config run the first sampler of the sweep once and skip the
    rest (they would be byte-identical re-runs).  Worker counts above one
    need the detector's parallel spec.
    """
    has_engine = hasattr(getattr(probe, "config", None), "with_overrides")
    if not has_engine and sampler != first_sampler:
        return (f"{type(probe).__name__} has no diffusion sampler knob; "
                f"covered by the {first_sampler!r} cell")
    if num_workers > 1 and not getattr(probe, "supports_parallel", True):
        reason = getattr(probe, "parallel_unsupported_reason",
                         "no parallel training support")
        return f"does not support num_workers > 1: {reason}"
    return None


def run_bench_matrix(detectors: Sequence[str], datasets: Sequence[str],
                     samplers: Sequence[str] = ("full",),
                     workers: Sequence[int] = (1,), *,
                     num_runs: int = 1, scale: float = 0.05, seed: int = 0,
                     num_inference_steps: Optional[int] = None,
                     adjust: bool = True,
                     detector_factory: Optional[Callable[[str, int], object]] = None,
                     progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Sweep the detector × dataset × sampler × workers cross product.

    Every runnable cell is ``num_runs`` independent (fit, predict, score)
    runs through :func:`evaluate_detector` on ``load_dataset(dataset,
    seed=seed, scale=scale)``; unrunnable cells are recorded as skipped.
    Returns the schema-versioned result dict that
    :func:`write_bench_matrix` serialises.
    """
    from ..data import load_dataset

    if not detectors or not datasets or not samplers or not workers:
        raise ValueError("every matrix axis needs at least one value")
    if any(count < 1 for count in workers):
        raise ValueError("worker counts must be positive")
    factory = detector_factory or bench_detector_factory
    say = progress or (lambda message: None)

    cells: List[BenchCell] = []
    loaded = {name: load_dataset(name, seed=seed, scale=scale)
              for name in datasets}
    for dataset_name in datasets:
        dataset = loaded[dataset_name]
        for detector_name in detectors:
            probe = factory(detector_name, seed)
            for sampler in samplers:
                for num_workers in workers:
                    cell = BenchCell(detector=detector_name,
                                     dataset=dataset_name, sampler=sampler,
                                     num_workers=num_workers)
                    reason = _cell_skip_reason(probe, sampler, samplers[0],
                                               num_workers)
                    if reason is not None:
                        cell.skipped = True
                        cell.skip_reason = reason
                        say(f"skip {detector_name} x {dataset_name} x "
                            f"{sampler} x {num_workers}w: {reason}")
                        cells.append(cell)
                        continue
                    say(f"run  {detector_name} x {dataset_name} x "
                        f"{sampler} x {num_workers}w")
                    cell.summary = evaluate_detector(
                        lambda run: factory(detector_name, seed + run),
                        dataset, num_runs=num_runs,
                        detector_name=detector_name, adjust=adjust,
                        sampler=sampler,
                        num_inference_steps=num_inference_steps,
                        num_workers=num_workers)
                    cells.append(cell)

    return {
        "schema": "repro.bench_matrix",
        "schema_version": BENCH_SCHEMA_VERSION,
        "matrix": {
            "detectors": list(detectors),
            "datasets": list(datasets),
            "samplers": list(samplers),
            "workers": [int(count) for count in workers],
        },
        "config": {
            "num_runs": num_runs,
            "scale": scale,
            "seed": seed,
            "num_inference_steps": num_inference_steps,
            "adjust": adjust,
        },
        "num_cells": len(cells),
        "num_skipped": sum(1 for cell in cells if cell.skipped),
        "cells": [cell.as_dict() for cell in cells],
    }


def write_bench_matrix(result: Dict, path) -> None:
    """Serialise a :func:`run_bench_matrix` result as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_bench_matrix(result: Dict,
                        metrics: Sequence[str] = ("f1", "r_auc_pr",
                                                  "train_seconds")) -> str:
    """Render a matrix result as an aligned text table (one row per cell)."""
    header = ["detector", "dataset", "sampler", "workers"] + list(metrics)
    rows = [header]
    for cell in result["cells"]:
        prefix = [cell["detector"], cell["dataset"], cell["sampler"],
                  str(cell["num_workers"])]
        if cell["skipped"]:
            rows.append(prefix + ["(skipped)"] + [""] * (len(metrics) - 1))
            continue
        rows.append(prefix + [f"{cell['metrics'][m]:.4f}" for m in metrics])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths))
                     for row in rows)
