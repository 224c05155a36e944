"""The repo's benchmark: one command per workload, outputs checked, metrics printed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures import cost, then runs the workload once untraced and
once with spans around every layer's entry points, and reports per-layer
counts, times, the self-time share of each layer and the tracing overhead.

Each workload runs in a fresh interpreter (``workloads.py``) under a hard
wall-clock limit, with BLAS and OpenMP pinned to one thread so the parent
and its two scoring workers never exceed the machine's two cores.  A crash,
a hang or a failed output check fails the run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYERS
from workloads import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("detect", "serve", "adapt")

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = {"detect": 3, "serve": 5, "adapt": 3}

#: Every process the benchmark starts inherits these.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: A run must end within 180 s; the children share what is left of this.
RUN_BUDGET_S = 170.0
IMPORT_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("train_windows_per_s", "windows/s"),
    ("alarm_latency_p50_ms", "ms"),
    ("alarm_latency_p99_ms", "ms"),
    ("time_to_swap_s", "s"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _spans(*fields):
    return tuple((f"{name}.{field}", unit) for name, pairs in fields
                 for field, unit in pairs)


CALLS_S = (("calls", "count"), ("s", "s"))
CALLS_S_SELF = CALLS_S + (("self_s", "s"),)

PER_LAYER = _spans(
    ("nn.Tensor.gelu", CALLS_S + (("mb", "MB"),)),
    ("nn.Tensor.softmax", (("s", "s"),)),
    ("nn.LayerNorm.forward", (("s", "s"),)),
    ("nn.Linear.forward", (("s", "s"),)),
    ("nn.MultiHeadSelfAttention.forward", (("self_s", "s"),)),
    ("nn.TransformerEncoderLayer.forward", (("self_s", "s"),)),
    ("nn.Tensor.backward", (("s", "s"),)),
    ("nn.Adam.step", CALLS_S),
    ("models.ImTransformer.forward.train", CALLS_S_SELF),
    ("models.ImTransformer.forward.infer", CALLS_S_SELF),
    ("diffusion.ImputedDiffusion.impute", CALLS_S_SELF),
    ("diffusion.ReverseSampler.step", CALLS_S),
    ("diffusion.ImputedDiffusion.training_loss", (("s", "s"),)),
    ("inference.ScoreReducer.window_errors", CALLS_S + (("tasks", "count"),)),
    ("inference.ScoreSpec.draw", (("s", "s"),)),
) + (
    ("inference.dispatch_wait_s", "s"),
    ("inference.ipc.bytes_per_task", "bytes"),
) + _spans(
    ("inference.WorkerPool.start", (("s", "s"),)),
    ("nn.SharedParameterBlock.publish", CALLS_S + (("mb", "MB"),)),
    ("core.ImDiffusionDetector.fit", CALLS_S),
    ("core.ImDiffusionDetector.score", CALLS_S),
    ("core.ImDiffusionDetector.fine_tune", CALLS_S),
    ("core.ImDiffusionDetector.holdout_error", CALLS_S),
    ("core.EnsembleVoter.vote", CALLS_S + (("points", "count"),)),
    ("training.Trainer.fit", (("s", "s"),)),
) + (
    ("training.batches", "count"),
    ("training.windows", "count"),
) + _spans(
    ("serving.StreamRouter.ingest_points", CALLS_S),
    ("serving.MicroBatcher.flush", CALLS_S + (("windows_per_flush", "count"),
                                             ("fill_ratio", "ratio"))),
) + (
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p99_ms", "ms"),
) + _spans(
    ("serving.IncrementalScorer.score_window_batch", CALLS_S),
    ("serving.IncrementalScorer.decide", CALLS_S + (("revoted_points", "count"),
                                                   ("new_points", "count"))),
    ("serving.IncrementalScorer.merge", (("s", "s"),)),
    ("serving.DetectorService.collect_alarms", (("self_s", "s"),)),
    ("serving.ModelRegistry.publish_version", CALLS_S + (("mb", "MB"),)),
    ("serving.DetectorService.hot_swap", CALLS_S),
) + (
    ("serving.points_evicted", "count"),
    ("serving.dropped_points", "count"),
    ("serving.backpressure_events", "count"),
) + _spans(
    ("analytics.AnalyticsEngine.observe_block", CALLS_S + (("points", "count"),)),
) + (
    ("analytics.alerts_fired", "count"),
) + _spans(
    ("adaptation.DriftMonitor.update", CALLS_S),
    ("adaptation.AdaptationController.poll", CALLS_S),
) + (
    ("adaptation.applied", "count"),
    ("adaptation.rolled_back", "count"),
    ("adaptation.skipped", "count"),
    ("adaptation.acceptance_ratio", "ratio"),
    ("data.load_dataset.s", "s"),
    ("import.repro.s", "s"),
    ("import.scipy_stats.s", "s"),
    ("loadgen.late_p99_ms", "ms"),
) + tuple((f"layer.{layer}.share", "ratio") for layer in (
    "nn", "models", "diffusion", "inference", "core", "training", "serving",
    "analytics", "adaptation", "data", "unattributed")) + (
    ("share.denoiser_forward", "ratio"),
    ("share.analytics_decide", "ratio"),
    ("share.finetune_holdout", "ratio"),
    ("share.dispatch_wait", "ratio"),
    ("trace.overhead", "ratio"),
)


# ----------------------------------------------------------------------
# Process isolation
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout: float):
    """Run ``argv`` in its own session; returns ``(returncode, stdout, stderr)``.

    On timeout the whole process group (the child and any scoring workers
    it spawned) is killed and reaped, and the return code is ``None``.
    """
    process = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
        return process.returncode, stdout, stderr
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
        return None, stdout, stderr
    finally:
        # Scoring workers are daemons of the child; make sure none outlives
        # it, and wait until the whole group is gone.
        give_up = time.monotonic() + 10.0
        while time.monotonic() < give_up:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def run_workload(workload: str, seed: int, setups: int, trace: bool,
                 deadline: float, size: str = "full"):
    """One workload in a fresh interpreter; returns ``(result, error)``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-{seed}-{'traced' if trace else 'plain'}.json")
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--setups", str(setups),
            "--trace", str(int(trace)), "--size", size, "--out", out]
    code, _, stderr = run_child(argv, deadline - time.monotonic())
    if code is None:
        return None, f"{workload}: timed out (hung or too slow); process group killed"
    if code != 0 or not os.path.exists(out):
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        return None, f"{workload}: exited with code {code}\n{tail}"
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), None


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_outputs(workload: str, result: dict) -> list:
    """Failed output checks of one workload result (empty when all pass)."""
    failures = []
    if not result["scores_finite"]:
        failures.append("a score is not finite")
    if result["windows_labelled"] != result["windows_submitted"]:
        failures.append(f"{result['windows_submitted'] - result['windows_labelled']} "
                        f"of {result['windows_submitted']} windows never labelled")
    if result["points_labelled"] != result["points_ingested"]:
        failures.append(f"{result['points_labelled']} of {result['points_ingested']} "
                        f"ingested points labelled")
    lost = result["points_evicted"] + result["dropped_points"]
    if lost or result["backpressure_events"]:
        failures.append(f"lost work: {lost} points evicted or dropped, "
                        f"{result['backpressure_events']} backpressure events")
    if result["alarms"] < 1:
        failures.append("no alarm raised")
    if workload == "adapt":
        # Applied or rolled back, an adaptation ran fine-tune, holdout,
        # publish and hot-swap; on some seeds every candidate regresses the
        # held-out error and the controller rightly rolls each one back.
        if result["adaptations_applied"] + result["adaptations_rolled_back"] < 1:
            failures.append("no adaptation fine-tuned and swapped")
        if result["adaptations_resolved"] != result["adaptation_attempts"]:
            failures.append("an adaptation attempt did not resolve")
    return failures


def check_digest(workload: str, seed: int, size: str, digest: str) -> list:
    """Outputs must not change between runs of one checkout with one seed."""
    path = os.path.join(OUT_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    key = f"{workload}:{seed}:{size}"
    if key in known:
        if known[key] != digest:
            return [f"output digest {digest[:12]} differs from an earlier run's "
                    f"{known[key][:12]} with the same seed"]
        return []
    known[key] = digest
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    return []


def counts(workload: str, result: dict):
    """Operations attempted and failed: windows, plus adaptation attempts."""
    attempted = result["windows_submitted"]
    failed = attempted - result["windows_labelled"]
    if workload == "adapt":
        attempted += result["adaptation_attempts"]
        failed += result["adaptation_attempts"] - result["adaptations_resolved"]
    return max(attempted, 1), failed


# ----------------------------------------------------------------------
# Environment and import cost
# ----------------------------------------------------------------------
def environment(seed: int, result: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": result.get("numpy"), "blas": result.get("blas"),
            "threads": THREAD_ENV, "seed": seed,
            "affinity": "scoring worker i on CPU i", "flush": "size only",
            "warm_up": "one untimed batch in set-up"}


def parse_importtime(stderr: str):
    """``(repro, scipy.stats)`` cumulative seconds from ``-X importtime`` output.

    The output is post-order (a module follows the modules it imported,
    indented one step deeper), so read backwards to see parents first;
    the ``scipy.stats`` share sums the outermost ``scipy.stats*`` modules.
    """
    repro_s = scipy_s = 0.0
    stack = []  # (indent, inside scipy.stats)
    for line in reversed(stderr.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:
            continue  # the column header
        name = parts[2].strip()
        indent = len(parts[2]) - len(parts[2].lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        if name == "repro":
            repro_s = cumulative
        if is_stats and not inside:
            scipy_s += cumulative
        stack.append((indent, inside or is_stats))
    return repro_s, scipy_s


def import_cost(deadline: float, probes: int = IMPORT_PROBES):
    """Median ``import repro`` and ``scipy.stats`` time over fresh interpreters."""
    samples = []
    for _ in range(probes):
        code, _, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            deadline - time.monotonic())
        if code != 0:
            return None, None
        samples.append(parse_importtime(stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(result: dict) -> dict:
    return {name: {"value": float(result[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer_values(result: dict, plain: list, imports) -> dict:
    """Per-layer metric values from a traced result and its untraced twins."""
    trace = result["trace"]
    spans, counters, samples = trace["spans"], trace["counters"], trace["samples"]

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0)

    values = {}
    for name, _ in PER_LAYER:
        base, field = name.rsplit(".", 1)
        values[name] = counters.get(
            name, span(base, field) if field in ("calls", "s", "self_s") else 0)
    serial = "inference.ScoreReducer.window_errors.serial"
    multiprocess = "inference.ScoreReducer.window_errors.multiprocess"
    flushes = span("serving.MicroBatcher.flush", "calls")
    fills = samples.get("serving.MicroBatcher.flush.fill", [])
    ipc = samples.get("inference.ipc.bytes_per_task", [])
    waits = samples.get("serving.queue_wait_ms", [])
    applied, rolled_back = values["adaptation.applied"], values["adaptation.rolled_back"]
    values.update({
        "inference.ScoreReducer.window_errors.calls":
            span(serial, "calls") + span(multiprocess, "calls"),
        "inference.ScoreReducer.window_errors.s": span(serial) + span(multiprocess),
        "inference.dispatch_wait_s": span(multiprocess, "self_s"),
        "inference.ipc.bytes_per_task": statistics.mean(ipc) if ipc else 0.0,
        "serving.MicroBatcher.flush.windows_per_flush":
            counters.get("serving.MicroBatcher.flush.windows", 0) / flushes if flushes else 0.0,
        "serving.MicroBatcher.flush.fill_ratio": statistics.mean(fills) if fills else 0.0,
        "serving.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "serving.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
        "serving.points_evicted": result["points_evicted"],
        "serving.dropped_points": result["dropped_points"],
        "serving.backpressure_events": result["backpressure_events"],
        "adaptation.acceptance_ratio":
            applied / (applied + rolled_back) if applied + rolled_back else 0.0,
        "import.repro.s": imports[0],
        "import.scipy_stats.s": imports[1],
        "loadgen.late_p99_ms": statistics.median(
            run.get("late_p99_ms", 0.0) for run in plain),
    })

    shares = layer_shares(result)
    values.update({f"layer.{layer}.share": share
                   for layer, share in shares["layers"].items()})
    values.update({f"share.{key}": share for key, share in shares["contrast"].items()})
    values["trace.overhead"] = busy_s(result) / plain_busy_s(plain) - 1.0
    return values


def plain_busy_s(plain) -> float:
    """Untraced busy time: the mean of the runs before and after the traced one."""
    return statistics.mean(busy_s(result) for result in plain)


def busy_s(result: dict) -> float:
    """Measured-phase wall time minus the open-loop generator's sleeps."""
    return result["measure_s"] - result.get("idle_s", 0.0)


def layer_shares(result: dict) -> dict:
    """Self-time share of each layer in the measured phase (idle excluded)."""
    trace = result["trace"]
    busy = busy_s(result)
    layer_self = trace["layer_self_s"]
    layers = {layer: layer_self.get(layer, 0.0) / busy for layer in LAYERS}
    layers["unattributed"] = 1.0 - sum(layers.values())
    measured = trace["measured_s"]  # name -> [inclusive, self]

    def share(*names, column=0):
        return sum(measured.get(name, (0.0, 0.0))[column] for name in names) / busy

    contrast = {
        "denoiser_forward": share("models.ImTransformer.forward.infer",
                                  "models.ImTransformer.forward.train"),
        "analytics_decide": share("analytics.AnalyticsEngine.observe_block",
                                  "serving.IncrementalScorer.decide"),
        "finetune_holdout": share("core.ImDiffusionDetector.fine_tune",
                                  "core.ImDiffusionDetector.holdout_error"),
        "dispatch_wait": share("inference.ScoreReducer.window_errors.multiprocess",
                               column=1),
    }
    return {"layers": layers, "contrast": contrast, "busy_s": busy}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_environment(env: dict) -> None:
    print(f"environment: nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"threads={','.join(f'{k}={v}' for k, v in env['threads'].items())} "
          f"seed={env['seed']} affinity={env['affinity']!r} flush={env['flush']!r} "
          f"warm_up={env['warm_up']!r}")


def print_end_to_end(workload: str, result: dict) -> None:
    n = result["alarm_latency_samples"]
    print(f"{workload}: end-to-end (tracing off)")
    for name, unit in END_TO_END:
        note = ""
        if name == "setup_s":
            note = f"median of {len(result['setup_samples'])} set-ups"
        elif name.startswith("alarm_latency"):
            beyond = n * (1.0 - (0.5 if name.endswith("p50_ms") else 0.99))
            note = f"n={n} windows, {beyond:.0f} beyond"
            if beyond < 10:
                note += " (fewer than 10: order statistic, not a supported percentile)"
        elif name == "time_to_swap_s" and workload == "adapt":
            note = f"median of {result['swaps_timed']} adapting polls"
        print(f"  {name:24s} {result[name]:14.4f} {unit:10s} {note}")


def print_trace(workload: str, result: dict, plain: list, values: dict) -> None:
    shares = layer_shares(result)
    busy = shares["busy_s"]
    print(f"{workload}: traced run, self time by layer over the measured phase "
          f"({busy:.2f} s busy of {result['measure_s']:.2f} s)")
    for layer, share in shares["layers"].items():
        print(f"  {layer:14s} {share * busy:9.3f} s {share * 100:6.1f} %")
    print(f"  tracing overhead {values['trace.overhead'] * 100:+.1f} % "
          f"(busy {busy:.2f} s traced vs {plain_busy_s(plain):.2f} s untraced, "
          f"mean of the runs before and after); "
          f"{result['trace']['span_count']} spans in {result['trace']['spans_path']}")
    contrast = shares["contrast"]
    print("  inclusive shares: " + ", ".join(
        f"{key} {value * 100:.1f} %" for key, value in contrast.items()))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="nominal measured-phase length; each workload's "
                             "work is fixed (see README)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)  # tiny: the harness self-test
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; run from a checkout of the repo",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    failures, results = [], []
    imports = (None, None)
    full = args.size == "full"
    if args.trace:
        imports = import_cost(deadline, IMPORT_PROBES if full else 1)
        if imports[0] is None:
            failures.append("import repro failed in a fresh interpreter")
        # Untraced runs on both sides of the traced one, so a drift in machine
        # speed during the run does not read as tracing overhead.
        runs = [(1, False), (1, True), (1, False)]
    else:
        runs = [(SETUPS[args.workload] if full else 1, False)]
    for setups, traced in runs:
        if failures:
            break
        result, error = run_workload(args.workload, args.seed, setups, traced,
                                     deadline, args.size)
        if error:
            failures.append(error)
            break
        failures += check_outputs(args.workload, result)
        failures += check_digest(args.workload, args.seed, args.size, result["digest"])
        results.append(result)

    if len(results) < len(runs):
        for failure in failures:
            print(f"FAILED: {failure}")
        emit(False, 1, 1, {})
        return 1

    if args.trace:
        result, plain = results[1], [results[0], results[2]]
    else:
        result = results[0]
    print_environment(environment(args.seed, result))
    if args.trace:
        values = per_layer_values(result, plain, imports)
        print_trace(args.workload, result, plain, values)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        print_end_to_end(args.workload, result)
        metrics = end_to_end_metrics(result)
    attempted, failed = counts(args.workload, result)
    print(f"{args.workload}: operations attempted {attempted}, failed {failed}; "
          f"output digest {result['digest'][:16]}")
    for failure in failures:
        print(f"FAILED check: {failure}")
    emit(not failures and failed == 0, attempted, failed, metrics)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
