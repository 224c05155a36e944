"""Self-test of the benchmark harness, at a tiny size.

    python3 -m pytest perfbench -q

Every workload runs through the one command at a tiny size and must emit
every metric named in BENCHMARK.json with its unit.  Corrupted outputs (a
NaN score, a dropped window) must trip the output checks, and a hung child
must be killed together with the processes it started.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def one_command(workload: str, trace: int, root: str = run.ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    return completed


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = one_command(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _tiny(run_workload, tmp_path):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    return run_workload(workloads.SIZES["tiny"], 1, 1, None, str(tmp_path))


def test_tiny_serve_passes_the_checks(tmp_path):
    assert run.check_outputs("serve", _tiny(workloads.run_serve, tmp_path)) == []


def test_nan_score_trips_the_checks(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from repro.serving.scorer import IncrementalScorer

    original = IncrementalScorer.score_window_batch

    def poisoned(self, windows, rng=None):
        errors = original(self, windows, rng)
        errors[max(errors)][0, 0] = float("nan")
        return errors

    monkeypatch.setattr(IncrementalScorer, "score_window_batch", poisoned)
    failures = run.check_outputs("serve", _tiny(workloads.run_serve, tmp_path))
    assert "a score is not finite" in failures


def test_dropped_window_trips_the_checks(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from repro.serving.batcher import MicroBatcher

    original = MicroBatcher.flush
    dropped = []

    def lossy(self, reason="forced"):
        if not dropped and len(self._pending) > 1:
            dropped.append(self._pending.pop(0))
            self._enqueued_at.pop(0)
        return original(self, reason)

    monkeypatch.setattr(MicroBatcher, "flush", lossy)
    failures = run.check_outputs("serve", _tiny(workloads.run_serve, tmp_path))
    assert dropped
    assert any("never labelled" in failure for failure in failures), failures


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("State:"):
                    return line.split()[1]
    except OSError:
        pass
    return "gone"


def test_hung_child_is_killed_with_its_workers():
    script = ("import subprocess, sys, time; "
              "worker = subprocess.Popen([sys.executable, '-c', "
              "'import time; time.sleep(60)']); "
              "print(worker.pid, flush=True); time.sleep(60)")
    started = time.monotonic()
    code, stdout, _ = run.run_child([sys.executable, "-c", script], timeout=2.0)
    assert code is None
    assert time.monotonic() - started < 20
    worker = int(stdout.split()[0])
    assert _state(worker) in ("gone", "Z")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    completed = one_command("detect", 0, root=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
