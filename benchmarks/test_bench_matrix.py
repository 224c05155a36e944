"""Bench matrix smoke: a tiny grid through the runner.

:func:`repro.evaluation.run_bench_matrix` sweeps a small detector × dataset
× sampler × workers grid end-to-end and serialises ONE schema-versioned
``BENCH_matrix.json`` (path overridable via ``REPRO_BENCH_MATRIX_OUTPUT``) —
the artifact CI uploads.  The baselines' 1-worker bit-identity against
frozen copies of their serial closures is a unit test
(``tests/test_parallel_baselines.py::TestSpecBitIdentity``).

Environment knobs: ``REPRO_BENCH_MATRIX_SCALE`` (default 0.04) and
``REPRO_BENCH_MATRIX_OUTPUT``.
"""

from __future__ import annotations

import json
import os

from repro.evaluation import (
    BENCH_SCHEMA_VERSION,
    run_bench_matrix,
    write_bench_matrix,
)

MATRIX_SCALE = float(os.environ.get("REPRO_BENCH_MATRIX_SCALE", "0.04"))
OUTPUT = os.environ.get("REPRO_BENCH_MATRIX_OUTPUT", "BENCH_matrix.json")


class TestBenchMatrix:
    def test_tiny_grid_writes_single_artifact(self):
        result = run_bench_matrix(
            ["ImDiffusion", "OmniAnomaly"], ["SMD", "GCP"],
            samplers=("full", "ddim"), workers=(1, 2),
            scale=MATRIX_SCALE, progress=print)
        write_bench_matrix(result, OUTPUT)

        with open(OUTPUT) as handle:
            loaded = json.load(handle)
        assert loaded["schema"] == "repro.bench_matrix"
        assert loaded["schema_version"] == BENCH_SCHEMA_VERSION
        assert loaded["num_cells"] == 2 * 2 * 2 * 2
        assert loaded["num_cells"] == len(loaded["cells"])
        # ImDiffusion honours every cell; OmniAnomaly has no sampler knob,
        # so its ddim cells are marked skipped rather than re-run.
        ran = [c for c in loaded["cells"] if not c["skipped"]]
        skipped = [c for c in loaded["cells"] if c["skipped"]]
        assert len(ran) == 8 + 4
        assert all(c["detector"] == "OmniAnomaly" and c["sampler"] == "ddim"
                   for c in skipped)
        assert all(c["metrics"] is None for c in skipped)
        for cell in ran:
            assert 0.0 <= cell["metrics"]["f1"] <= 1.0
            assert cell["metrics"]["train_seconds"] >= 0.0
        print(f"\nBENCH_matrix.json: {len(ran)} cells run, "
              f"{len(skipped)} skipped (schema v{loaded['schema_version']})")

    def test_worker_cells_match_serial_metrics(self):
        with open(OUTPUT) as handle:
            cells = json.load(handle)["cells"]

        def metric(detector, workers):
            for cell in cells:
                if (cell["detector"] == detector and cell["sampler"] == "full"
                        and cell["num_workers"] == workers
                        and cell["dataset"] == "SMD"):
                    return cell["metrics"]
            raise AssertionError(f"missing cell {detector}/{workers}")

        for detector in ("ImDiffusion", "OmniAnomaly"):
            serial, parallel = metric(detector, 1), metric(detector, 2)
            for key in ("precision", "recall", "f1", "r_auc_pr"):
                assert abs(serial[key] - parallel[key]) < 1e-6, (detector, key)

