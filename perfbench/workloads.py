"""One benchmark workload, run start to finish in this process.

``run.py`` launches this file in a fresh interpreter per workload::

    python3 perfbench/workloads.py --workload serve --seed 3 --setups 3 \
        --trace 0 --out .perfbench/result.json

Every input is generated from ``--seed``; the program under test only sees
the generated arrays.  The process writes one JSON document to ``--out``
(metrics, sample counts, output digest, the facts the output checks need)
and, with ``--trace 1``, the spans of the run as JSONL next to it.

Each workload is a ``setup`` (timed ``--setups`` times; the last one is
kept) followed by one measured phase.  Set-up starts after ``import repro``,
so interpreter start-up and import jitter stay out of ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

now = time.perf_counter


@dataclass(frozen=True)
class Size:
    """Fixed work of each workload (``full`` is the benchmark; ``tiny`` the self-test)."""

    detect_scale: float          # SMD analogue length multiplier
    serve_tenants: int
    serve_samples: int           # samples each tenant streams
    serve_tick_s: float          # open-loop schedule: one sample per tenant per tick
    serve_train_days: float      # simulated history per tenant
    serve_train_tenants: int     # tenants whose history the shared model trains on
    adapt_scale: float           # DRIFT length multiplier
    adapt_every: int             # drift-rule window: one adaptation per this many points
    detect_overrides: tuple = ()  # (field, value) pairs over DETECT_CONFIG


SIZES = {
    "full": Size(detect_scale=0.1,
                 serve_tenants=32, serve_samples=544, serve_tick_s=0.032,
                 serve_train_days=2.0, serve_train_tenants=8,
                 adapt_scale=0.6, adapt_every=256),
    "tiny": Size(detect_scale=0.02,
                 serve_tenants=4, serve_samples=64, serve_tick_s=0.002,
                 serve_train_days=0.5, serve_train_tenants=2,
                 adapt_scale=0.08, adapt_every=96,
                 detect_overrides=(("num_steps", 4), ("epochs", 1))),
}

# ``repro detect``'s configuration.
DETECT_CONFIG = dict(window_size=32, num_steps=10, epochs=3, hidden_dim=24)

# ``repro serve``'s shared-model configuration, with a 10-step schedule
# walked by DDIM in 4 so the denoiser no longer dwarfs the serving layer.
# The model trains on every window of several tenants' history rather than
# 48 windows of one: a fit of a fraction of a second would time noise.
SERVE_CONFIG = dict(window_size=16, num_steps=10, epochs=2, hidden_dim=16,
                    num_blocks=1, num_masked_windows=4, num_unmasked_windows=4,
                    max_train_windows=None, train_stride=8,
                    deterministic_inference=True, collect="x0",
                    error_percentile=96.0, sampler="ddim",
                    num_inference_steps=4)
SERVE_POLICIES = ("score > 0.5 and hysteresis(up=0.5, down=0.3)",
                  "quantile(q=99, window=64, mult=1.5)")
SERVE_FLUSH = 8
SERVE_HISTORY = 1024

# ``run_drift_scenario``'s model configuration.
ADAPT_CONFIG = dict(window_size=16, num_steps=8, epochs=2, hidden_dim=16,
                    num_blocks=1, num_masked_windows=4, num_unmasked_windows=4,
                    max_train_windows=48, train_stride=8, batch_size=8,
                    deterministic_inference=True, collect="x0",
                    error_percentile=96.0)
# One chunk is one flush: every window's labels return with its own chunk.
ADAPT_CHUNK = 64
ADAPT_FLUSH = 4
ADAPT_WORKERS = 2
ADAPT_TRAIN_FRACTION = 0.25

# Size-only flushing: an age flush would make batch composition, and with
# it the order of random draws, depend on timing.
NEVER = 1e9


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def _hwm_kb(pid="self") -> int:
    """Peak resident set (VmHWM) of one process, in KiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def percentile(values, q: int) -> float:
    """Linearly interpolated ``q``-th percentile (1 <= q <= 99) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Digest:
    """SHA-256 over every score and label array a workload produced, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *arrays) -> None:
        import numpy as np

        for array in arrays:
            array = np.ascontiguousarray(array)
            self._hash.update(str((array.dtype.str, array.shape)).encode())
            self._hash.update(array.tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _train_windows(detector, train) -> int:
    """Training windows one epoch of ``detector.fit(train)`` visits."""
    from repro.core.modes import recommended_stride
    from repro.data.windows import window_starts

    config = detector.config
    stride = config.train_stride or recommended_stride(config)
    count = len(window_starts(len(train), config.window_size, stride))
    if config.max_train_windows is not None:
        count = min(count, config.max_train_windows)
    return count


def _pooled_f1(pairs) -> float:
    """Point-adjusted F1 over several (labels, scores, truth) streams.

    The streams are concatenated with one normal point between them, so an
    anomaly segment never spans two tenants and the result is the F1 of the
    pooled true/false positive counts.
    """
    import numpy as np
    from repro import evaluate_labels

    labels, scores, truth = [], [], []
    for stream_labels, stream_scores, stream_truth in pairs:
        labels += [np.asarray(stream_labels, dtype=np.int64), np.zeros(1, np.int64)]
        scores += [np.asarray(stream_scores, dtype=np.float64), np.zeros(1)]
        truth += [np.asarray(stream_truth, dtype=np.int64), np.zeros(1, np.int64)]
    return float(evaluate_labels(np.concatenate(labels), np.concatenate(scores),
                                 np.concatenate(truth)).f1)


class LabelWatch:
    """Alarm-latency bookkeeping: when does each window's label first appear?

    ``due(tenant, end, t)`` records that the sample completing the window
    ending (exclusively) at stream index ``end`` was due at ``t``.  After
    every service call, ``emitted(t)`` stamps each window whose labels the
    analytics store now holds (its watermark passed ``end``) with latency
    ``t - due``.  Flushes are first-in first-out, so checking stops at the
    first window not yet labelled.
    """

    def __init__(self, service) -> None:
        self._engine = service.analytics
        self._window = service.scorer.window_size
        self._pending = deque()
        self.windows = []
        self.latencies_ms = []

    @property
    def submitted(self) -> int:
        return len(self.windows)

    def due(self, tenant: str, end: int, at: float) -> None:
        self._pending.append((tenant, end, at))
        self.windows.append((tenant, end))

    def labelled(self, views) -> int:
        """Submitted windows that every final tenant view covers with labels.

        A window that was never scored leaves a hole the score cache
        starts after, so it (and everything before it) is not covered.
        """
        return sum(1 for tenant, end in self.windows
                   if views[tenant].start <= end - self._window
                   and end <= views[tenant].end)

    def emitted(self, at: float) -> None:
        pending = self._pending
        while pending and self._engine.watermark(pending[0][0]) >= pending[0][1]:
            _, _, due = pending.popleft()
            self.latencies_ms.append((at - due) * 1e3)



def _latency_metrics(latencies_ms) -> dict:
    return {
        "alarm_latency_p50_ms": percentile(latencies_ms, 50),
        "alarm_latency_p99_ms": percentile(latencies_ms, 99),
        "alarm_latency_samples": len(latencies_ms),
    }


# ----------------------------------------------------------------------
# detect: offline batch, shaped like ``repro detect``
# ----------------------------------------------------------------------
def run_detect(size: Size, seed: int, setups: int, tracer, workdir: str) -> dict:
    """Fit on the SMD analogue, deploy through a registry, predict the test split.

    The denoiser forward and backward are nearly all the work: a kernel
    change shows here at full strength and a serving change shows nothing.
    """
    import numpy as np
    from repro import (ImDiffusionConfig, ImDiffusionDetector, ModelRegistry,
                       evaluate_labels, load_dataset)

    config = ImDiffusionConfig(seed=seed, **{**DETECT_CONFIG,
                                             **dict(size.detect_overrides)})

    def setup(index: int):
        started = now()
        data = load_dataset("SMD", seed=seed, scale=size.detect_scale)
        detector = ImDiffusionDetector(config)
        fit_started = now()
        detector.fit(data.train)
        fit_s = now() - fit_started
        swap_started = now()
        registry = ModelRegistry(os.path.join(workdir, f"registry-{index}"))
        version = registry.publish_version("detect", detector)
        served = registry.load_version("detect", version)
        served.predict(data.test[:config.window_size])  # warm-up batch
        swap_s = now() - swap_started
        timing = {"setup_s": now() - started, "fit_s": fit_s, "swap_s": swap_s,
                  "train_windows": _train_windows(detector, data.train)
                  * config.epochs}
        return (data, served), timing

    (data, served), setup_facts = _repeat_setup(setup, setups)

    if tracer is not None:
        tracer.begin_measure()
    started = now()
    result = served.predict(data.test)
    seconds = now() - started
    if tracer is not None:
        tracer.end_measure()

    digest = Digest()
    digest.add(result.scores, result.labels)
    test_points = data.test.shape[0]
    labelled = result.labels.shape[0] == test_points
    # Offline, every test point is due when predict is called and every
    # label returns with it: each window's alarm latency is the call time.
    windows = math.ceil(test_points / config.window_size)
    return {
        **setup_facts,
        "measure_s": seconds,
        "points_per_s": test_points / seconds,
        "time_to_swap_s": setup_facts["swap_s"],
        **_latency_metrics([seconds * 1e3] * windows),
        "f1": float(evaluate_labels(result.labels, result.scores,
                                    data.test_labels).f1),
        "digest": digest.hexdigest(),
        "scores_finite": bool(np.isfinite(result.scores).all()),
        "alarms": int(result.labels.sum()),
        "points_ingested": test_points,
        "points_labelled": int(result.labels.shape[0]),
        "windows_submitted": windows,
        "windows_labelled": windows if labelled else 0,
        "points_evicted": 0,
        "dropped_points": 0,
        "backpressure_events": 0,
    }


# ----------------------------------------------------------------------
# serve: multi-tenant open-loop streaming
# ----------------------------------------------------------------------
def _serve_traces(size: Size, seed: int):
    import numpy as np
    from repro.data.production import MicroserviceLatencySimulator, ProductionConfig

    traces = {}
    for i in range(size.serve_tenants):
        simulator = MicroserviceLatencySimulator(ProductionConfig(
            num_services=6, train_days=size.serve_train_days,
            test_days=size.serve_samples / 96.0, seed=seed * 1000 + i))
        raw = simulator.generate()
        test = np.log(raw.test)[:size.serve_samples]
        traces[f"tenant-{i}"] = (np.log(raw.train), test,
                                 raw.test_labels[:size.serve_samples])
    return traces


def run_serve(size: Size, seed: int, setups: int, tracer, workdir: str) -> dict:
    """Stream many tenants through one ``DetectorService`` on a fixed schedule.

    With a 4-step sampler the denoiser falls to roughly two thirds of busy
    time and decide + analytics take most of the rest, while the open-loop
    schedule puts queue wait into alarm latency: a serving or analytics
    change shows here and not on ``detect``.
    """
    import numpy as np
    from repro import (DetectorService, ImDiffusionConfig, ImDiffusionDetector,
                       ModelRegistry, ServingConfig)

    config = ImDiffusionConfig(seed=seed, **SERVE_CONFIG)
    window = config.window_size

    def setup(index: int):
        started = now()
        traces = _serve_traces(size, seed)
        train = np.concatenate([traces[f"tenant-{i}"][0]
                                for i in range(size.serve_train_tenants)])
        detector = ImDiffusionDetector(config)
        fit_started = now()
        detector.fit(train)
        fit_s = now() - fit_started
        swap_started = now()
        registry = ModelRegistry(os.path.join(workdir, f"registry-{index}"))
        version = registry.publish_version("serve", detector)
        served = registry.load_version("serve", version)
        service = DetectorService(served, ServingConfig(
            flush_size=SERVE_FLUSH, flush_age=NEVER, history=SERVE_HISTORY,
            alert_policies=SERVE_POLICIES, score_workers=1))
        for tenant in traces:
            service.register_tenant(tenant)
        # Warm-up: one window of each tenant's history through the new
        # model, in flush-sized batches; the tenants' stream state is untouched.
        warm = np.stack([service.scorer.scale(history[-window:])
                         for history, _, _ in traces.values()])
        for batch_start in range(0, len(warm), SERVE_FLUSH):
            service.scorer.score_window_batch(
                warm[batch_start:batch_start + SERVE_FLUSH])
        swap_s = now() - swap_started
        timing = {"setup_s": now() - started, "fit_s": fit_s, "swap_s": swap_s,
                  "train_windows": _train_windows(detector, train) * config.epochs}
        return (traces, service), timing

    (traces, service), setup_facts = _repeat_setup(
        setup, setups, lambda state: state[1].close())
    tenants = list(traces)
    # Stagger tenant start ticks so window completions spread evenly over
    # the schedule instead of arriving as one burst every `window` ticks.
    offsets = {tenant: (i * window) // len(tenants) for i, tenant in enumerate(tenants)}
    total_ticks = size.serve_samples + max(offsets.values())
    watch = LabelWatch(service)
    lateness_ms, alarms = [], 0
    busy = idle = 0.0

    with service:
        if tracer is not None:
            tracer.begin_measure()
        started = now()
        for tick in range(total_ticks):
            due = started + tick * size.serve_tick_s
            wait = due - now()
            if wait > 0:
                slept = now()
                time.sleep(wait)
                idle += now() - slept
            lateness_ms.append(max(0.0, now() - due) * 1e3)
            for tenant in tenants:
                step = tick - offsets[tenant]
                if not 0 <= step < size.serve_samples:
                    continue
                if (step + 1) % window == 0:
                    watch.due(tenant, step + 1, due)
                call_started = now()
                alarms += len(service.ingest(tenant, traces[tenant][1][step]))
                returned = now()
                busy += returned - call_started
                watch.emitted(returned)
        call_started = now()
        alarms += len(service.drain())
        returned = now()
        busy += returned - call_started
        watch.emitted(returned)
        measure_s = now() - started
        if tracer is not None:
            tracer.end_measure()

        digest = Digest()
        views = {tenant: service.tenant_view(tenant) for tenant in tenants}
        pairs = []
        dropped = 0
        finite = True
        for tenant, view in views.items():
            truth = traces[tenant][2]
            pairs.append((view.labels, view.scores, truth[view.start:view.end]))
            digest.add(view.labels, view.scores)
            finite &= bool(np.isfinite(view.scores).all())
            dropped += service.scorer.dropped_points(tenant)
        evicted = service.router.points_evicted
        backpressure = service.batcher.stats.backpressure_events

    points = size.serve_samples * len(tenants)
    return {
        **setup_facts,
        "measure_s": measure_s,
        "idle_s": idle,
        "busy_s": busy,
        "points_per_s": points / busy,
        "time_to_swap_s": setup_facts["swap_s"],
        **_latency_metrics(watch.latencies_ms),
        "late_p99_ms": percentile(lateness_ms, 99),
        "f1": _pooled_f1(pairs),
        "digest": digest.hexdigest(),
        "scores_finite": finite,
        "alarms": alarms,
        "points_ingested": points,
        "points_labelled": sum(v.end - v.start for v in views.values()),
        "windows_submitted": watch.submitted,
        "windows_labelled": watch.labelled(views),
        "points_evicted": evicted,
        "dropped_points": dropped,
        "backpressure_events": backpressure,
    }


# ----------------------------------------------------------------------
# adapt: drift -> fine-tune -> publish -> hot-swap under live serving
# ----------------------------------------------------------------------
def run_adapt(size: Size, seed: int, setups: int, tracer, workdir: str) -> dict:
    """Stream the DRIFT dataset through two scoring workers with adaptation on.

    The only workload that writes weights (``fine_tune``) while serving
    reads them, and the only one with registry writes, the shared-memory
    generation bump and worker pipe IPC.

    The drift rule's ratio is far below any real error level, so it fires
    each time its window refills after a swap: the loop adapts once every
    ``adapt_every`` points whatever the seed.  With ``repro adapt``'s
    default policy the number of adaptations ranged from 0 to 10 across
    seeds 1-6, which would make every metric here track the seed.
    """
    import numpy as np
    from repro import (AdaptationConfig, AdaptationController, DetectorService,
                       ImDiffusionConfig, ImDiffusionDetector, ModelRegistry,
                       ServingConfig, evaluate_labels, load_dataset,
                       training_tail_reference)
    from repro.data.windows import sliding_windows

    config = ImDiffusionConfig(seed=seed, **ADAPT_CONFIG)
    adaptation = AdaptationConfig(
        policy=f"error_shift(window={size.adapt_every}, ratio=0.001)",
        min_adapt_windows=4, adapt_epochs=2, holdout_fraction=0.25,
        regression_tolerance=0.05, cooldown_points=96, reference_points=128,
        max_snapshot_points=2 * size.adapt_every)
    window = config.window_size
    tenant = "tenant-0"

    def setup(index: int):
        started = now()
        data = load_dataset("DRIFT", seed=seed, scale=size.adapt_scale)
        train = np.asarray(data.train, dtype=np.float64)
        train = train[:max(int(round(len(train) * ADAPT_TRAIN_FRACTION)),
                           2 * window)]
        detector = ImDiffusionDetector(config)
        fit_started = now()
        detector.fit(train)
        fit_s = now() - fit_started
        reference = training_tail_reference(
            detector, train, points=adaptation.reference_points,
            bins=adaptation.reference_bins)
        test = np.asarray(data.test, dtype=np.float64)
        swap_started = now()
        registry = ModelRegistry(os.path.join(workdir, f"registry-{index}"))
        service = DetectorService(detector, ServingConfig(
            flush_size=ADAPT_FLUSH, flush_age=NEVER, history=len(test),
            raw_capacity=max(len(test), 4 * window),
            analytics_history=len(test), score_workers=ADAPT_WORKERS))
        service.register_tenant(tenant)
        controller = AdaptationController(service, reference, config=adaptation,
                                          registry=registry, model_name="adapt")
        # One core per scoring worker: left to the scheduler, both workers
        # sometimes share a core for the first second, doubling the first
        # flushes' latency in some runs and not others.
        cpus = sorted(os.sched_getaffinity(0))
        for slot, pid in enumerate(service.scorer.worker_pids):
            os.sched_setaffinity(pid, {cpus[slot % len(cpus)]})
        warm, _ = sliding_windows(service.scorer.scale(train), window, window)
        service.scorer.score_window_batch(warm[:ADAPT_FLUSH])  # warm-up batch
        swap_s = now() - swap_started
        timing = {"setup_s": now() - started, "fit_s": fit_s,
                  "deploy_s": swap_s,
                  "train_windows": _train_windows(detector, train) * config.epochs}
        return (data, test, service, controller), timing

    (data, test, service, controller), setup_facts = _repeat_setup(
        setup, setups, lambda state: state[2].close())
    watch = LabelWatch(service)
    swap_seconds, alarms = [], 0
    worker_pids = service.scorer.worker_pids

    with service:
        if tracer is not None:
            tracer.begin_measure()
        started = now()
        for chunk_start in range(0, len(test), ADAPT_CHUNK):
            chunk = test[chunk_start:chunk_start + ADAPT_CHUNK]
            submitted = now()
            for end in range(chunk_start + window, chunk_start + len(chunk) + 1):
                if end % window == 0:
                    watch.due(tenant, end, submitted)
            alarms += len(service.ingest(tenant, chunk))
            watch.emitted(now())
            poll_started = now()
            records = controller.poll()
            if any(r.action != "skipped" for r in records):
                swap_seconds.append(now() - poll_started)
        alarms += len(service.drain())
        watch.emitted(now())
        poll_started = now()
        if any(r.action != "skipped" for r in controller.poll()):
            swap_seconds.append(now() - poll_started)
        measure_s = now() - started
        if tracer is not None:
            tracer.end_measure()
        worker_kb = sum(_hwm_kb(pid) for pid in worker_pids)

        view = service.tenant_view(tenant)
        # The whole stream, not only its second half: some seeds put no
        # anomaly in the second half, which would make F1 zero.
        f1 = float(evaluate_labels(view.labels, view.scores,
                                   data.test_labels[view.start:view.end]).f1)
        digest = Digest()
        digest.add(view.labels, view.scores)
        dropped = service.scorer.dropped_points(tenant)
        evicted = service.router.points_evicted
        backpressure = service.batcher.stats.backpressure_events
        finite = bool(np.isfinite(view.scores).all())

    actions = [record.action for record in controller.history]
    return {
        **setup_facts,
        "measure_s": measure_s,
        "points_per_s": len(test) / measure_s,
        **_latency_metrics(watch.latencies_ms),
        "time_to_swap_s": statistics.median(swap_seconds) if swap_seconds else 0.0,
        "swaps_timed": len(swap_seconds),
        "f1": f1,
        "digest": digest.hexdigest(),
        "scores_finite": finite,
        "alarms": alarms,
        "points_ingested": len(test),
        "points_labelled": view.end - view.start,
        "windows_submitted": watch.submitted,
        "windows_labelled": watch.labelled({tenant: view}),
        "adaptations_applied": actions.count("adapted"),
        "adaptations_rolled_back": actions.count("rolled_back"),
        "adaptations_skipped": actions.count("skipped"),
        # Every drift edge is an attempt; the controller resolves each one
        # into an applied, rolled-back or skipped record.
        "adaptation_attempts": sum(1 for event in controller.drift_events
                                   if event.kind == "drift"),
        "adaptations_resolved": len(actions),
        "points_evicted": evicted,
        "dropped_points": dropped,
        "backpressure_events": backpressure,
        "worker_kb": worker_kb,
    }


WORKLOADS = {"detect": run_detect, "serve": run_serve, "adapt": run_adapt}


def _repeat_setup(setup, count: int, discard=None):
    """Run ``setup`` ``count`` times; keep the last state, report medians.

    Each set-up is the same fixed computation from the same seed, so the
    states are interchangeable; repeating it makes ``setup_s`` a median.
    Each set-up, and the measured phase after them, starts from a collected
    heap, so garbage left by one phase is not collected during the next.
    """
    timings, state = [], None
    for index in range(count):
        if state is not None and discard is not None:
            discard(state)
        gc.collect()
        state, timing = setup(index)
        timings.append(timing)
    gc.collect()
    facts = {key: statistics.median(t[key] for t in timings)
             for key in timings[0]}
    facts["setup_samples"] = [t["setup_s"] for t in timings]
    facts["train_windows_per_s"] = statistics.median(
        t["train_windows"] / t["fit_s"] for t in timings)
    return state, facts


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    expected = os.path.join(ROOT, "src", "repro", "__init__.py")
    if os.path.realpath(repro.__file__) != os.path.realpath(expected):
        raise SystemExit(f"imported repro from {repro.__file__}, not {expected}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with tempfile.TemporaryDirectory(prefix="registry-",
                                     dir=os.path.dirname(args.out)) as workdir:
        result = WORKLOADS[args.workload](SIZES[args.size], args.seed,
                                          args.setups, tracer, workdir)
    # Process tree: this process plus its scoring workers (read just before
    # they were shut down); MB here is 2**20 bytes.
    result["peak_rss_mb"] = (_hwm_kb() + result.get("worker_kb", 0)) / 1024.0
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    result["numpy"] = np.__version__
    result["blas"] = f"{blas.get('name')} {blas.get('version')}"
    if tracer is not None:
        tracer.uninstall()
        spans_path = os.path.splitext(args.out)[0] + ".spans.jsonl"
        result["trace"] = tracer.summary(spans_path)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
