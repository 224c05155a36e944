"""Spans around ``repro``'s public entry points, installed from outside ``src/``.

:class:`Tracer` replaces selected methods with timing wrappers for the
traced run only; untraced runs never import this module.  Each span records
its name, start, end, parent span and, on the serving path, the windows it
worked on.  Spans stay in memory and are written as JSONL when the run ends;
:meth:`Tracer.summary` turns them into the per-layer metrics and the
self-time table of the measured phase.

A span's *self time* is its duration minus the time its child spans cover.
Spans inside scoring workers are out of reach: the parent sees that work as
``inference.dispatch_wait_s``.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections import Counter, defaultdict

now = time.perf_counter

#: Layers in report order; a span belongs to the layer its name starts with.
LAYERS = ("nn", "models", "diffusion", "inference", "core", "training",
          "serving", "analytics", "adaptation", "data")

#: Tasks per run whose pickled payload is sized (pickling every task would
#: add the benchmark's own cost to the dispatch time it measures).
IPC_SAMPLE_TASKS = 16

NAME, START, END, PARENT, WINDOWS = range(5)


class Tracer:
    """In-memory span recorder with method wrappers for every traced layer."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []
        self._installed = []
        self.counters = Counter()
        self.samples = defaultdict(list)
        self.measure = (None, None)
        self._enqueued = {}
        self._last_decide_end = {}
        self._batch = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_measure(self) -> None:
        self.measure = (now(), None)

    def end_measure(self) -> None:
        self.measure = (self.measure[0], now())

    def wrap(self, owner, attr: str, name, on_exit=None, windows=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a string or ``f(args) -> str``; ``on_exit(record, args,
        result)`` adds counters after the call; ``windows(args)`` labels the
        span with the serving windows it handles.
        """
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack
        static = isinstance(original, staticmethod)
        function = original.__func__ if static else original
        pick_name = name if callable(name) else (lambda args, _n=name: _n)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [pick_name(args), 0.0, 0.0, parent, None]
            if windows is not None:
                record[WINDOWS] = windows(args)
            elif parent >= 0:
                # Nested spans carry their window group's identifier: the
                # batch id of a flush, or the one window a call works on.
                group = spans[parent][WINDOWS]
                record[WINDOWS] = group[0] if isinstance(group, list) else group
            stack.append(len(spans))
            spans.append(record)
            record[START] = now()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = now()
                stack.pop()
            if on_exit is not None:
                on_exit(record, args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # The traced entry points, layer by layer
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.adaptation.controller import AdaptationController
        from repro.adaptation.detectors import DriftMonitor
        from repro.analytics.engine import AnalyticsEngine
        from repro.core.detector import ImDiffusionDetector, ImputationScoreSpec
        from repro.core.ensemble import EnsembleVoter
        from repro.data.production import MicroserviceLatencySimulator
        from repro.data.registry import DatasetRegistry
        from repro.diffusion import samplers
        from repro.diffusion.imputation import ImputedDiffusion
        from repro.inference.parallel import (MultiprocessScoreReducer,
                                              SerialScoreReducer)
        from repro.inference.pool import WorkerPool
        from repro.models.imtransformer import ImTransformer
        from repro.nn.attention import MultiHeadSelfAttention, TransformerEncoderLayer
        from repro.nn.layers import LayerNorm, Linear
        from repro.nn.optim import Adam
        from repro.nn.shm import SharedParameterBlock
        from repro.nn.tensor import Tensor, is_grad_enabled
        from repro.serving.batcher import MicroBatcher
        from repro.serving.registry import ModelRegistry
        from repro.serving.router import StreamRouter
        from repro.serving.scorer import IncrementalScorer
        from repro.serving.service import DetectorService
        from repro.training.trainer import Trainer

        count, samples = self.counters, self.samples

        def gelu_mb(record, args, result):
            # Bytes moved, from tensor sizes: read the input, write the output.
            count["nn.Tensor.gelu.mb"] += 2 * args[0].data.nbytes / 1e6

        # repro.nn kernels, autograd and optimizer
        self.wrap(Tensor, "gelu", "nn.Tensor.gelu", gelu_mb)
        self.wrap(Tensor, "softmax", "nn.Tensor.softmax")
        self.wrap(Tensor, "backward", "nn.Tensor.backward")
        self.wrap(LayerNorm, "forward", "nn.LayerNorm.forward")
        self.wrap(Linear, "forward", "nn.Linear.forward")
        self.wrap(MultiHeadSelfAttention, "forward", "nn.MultiHeadSelfAttention.forward")
        self.wrap(TransformerEncoderLayer, "forward", "nn.TransformerEncoderLayer.forward")
        self.wrap(Adam, "step", "nn.Adam.step")

        def publish_mb(record, args, result):
            count["nn.SharedParameterBlock.publish.mb"] += args[0].nbytes / 1e6
        self.wrap(SharedParameterBlock, "publish", "nn.SharedParameterBlock.publish",
                  publish_mb)

        # repro.models
        self.wrap(ImTransformer, "forward",
                  lambda args: "models.ImTransformer.forward."
                  + ("train" if is_grad_enabled() else "infer"))

        # repro.diffusion
        self.wrap(ImputedDiffusion, "impute", "diffusion.ImputedDiffusion.impute")
        self.wrap(ImputedDiffusion, "training_loss",
                  "diffusion.ImputedDiffusion.training_loss")
        for sampler in vars(samplers).values():
            if (isinstance(sampler, type) and issubclass(sampler, samplers.ReverseSampler)
                    and "step" in sampler.__dict__):
                self.wrap(sampler, "step", "diffusion.ReverseSampler.step")

        # repro.inference
        def plan_tasks(record, args, result):
            count["inference.ScoreReducer.window_errors.tasks"] += len(result)
        self.wrap(ImputationScoreSpec, "plan", "inference.ScoreSpec.plan", plan_tasks)

        def draw_ipc(record, args, result):
            parent = record[PARENT]
            sampled = samples["inference.ipc.bytes_per_task"]
            if (parent >= 0 and len(sampled) < IPC_SAMPLE_TASKS and self.spans[parent][NAME]
                    == "inference.ScoreReducer.window_errors.multiprocess"):
                windows, task = args[1], args[2]
                sampled.append(len(pickle.dumps(
                    (0, task, windows[task.start:task.stop], result),
                    protocol=pickle.HIGHEST_PROTOCOL)))
        self.wrap(ImputationScoreSpec, "draw", "inference.ScoreSpec.draw", draw_ipc)
        self.wrap(SerialScoreReducer, "window_errors",
                  "inference.ScoreReducer.window_errors.serial")
        self.wrap(MultiprocessScoreReducer, "window_errors",
                  "inference.ScoreReducer.window_errors.multiprocess")
        self.wrap(WorkerPool, "start", "inference.WorkerPool.start")

        # repro.core
        for method in ("fit", "predict", "score", "fine_tune", "holdout_error"):
            self.wrap(ImDiffusionDetector, method, f"core.ImDiffusionDetector.{method}")

        def vote_points(record, args, result):
            step_errors = args[1]
            count["core.EnsembleVoter.vote.points"] += len(next(iter(step_errors.values())))
        self.wrap(EnsembleVoter, "vote", "core.EnsembleVoter.vote", vote_points)

        # repro.training
        def trained(record, args, result):
            loader, epochs = args[1], result.epochs_run
            count["training.batches"] += len(loader) * epochs
            count["training.windows"] += loader.num_samples * epochs
        self.wrap(Trainer, "fit", "training.Trainer.fit", trained)

        # repro.serving
        def ingested(record, args, result):
            if result:
                record[WINDOWS] = [f"{w.tenant}:{w.start}" for w in result]
        self.wrap(StreamRouter, "ingest_points", "serving.StreamRouter.ingest_points",
                  ingested)

        def enqueued(record, args, result):
            request = args[1]
            self._enqueued[(request.tenant, request.start)] = record[START]
        self.wrap(MicroBatcher, "submit", "serving.MicroBatcher.submit", enqueued)

        def flush_windows(args):
            batcher = args[0]
            self._batch += 1
            return [f"batch-{self._batch}"] + [
                f"{r.tenant}:{r.start}" for r in batcher._pending]

        def flushed(record, args, result):
            if result is None:
                return
            batcher = args[0]
            count["serving.MicroBatcher.flush.windows"] += result.num_windows
            samples["serving.MicroBatcher.flush.fill"].append(
                result.num_windows / batcher.flush_size)
            for request in result.requests:
                queued = self._enqueued.pop((request.tenant, request.start), None)
                if queued is not None:
                    samples["serving.queue_wait_ms"].append((record[START] - queued) * 1e3)
        self.wrap(MicroBatcher, "flush", "serving.MicroBatcher.flush", flushed,
                  windows=flush_windows)
        self.wrap(IncrementalScorer, "score_window_batch",
                  "serving.IncrementalScorer.score_window_batch")

        def decided(record, args, result):
            tenant = args[1]
            count["serving.IncrementalScorer.decide.revoted_points"] += len(result.labels)
            count["serving.IncrementalScorer.decide.new_points"] += result.end - max(
                self._last_decide_end.get(tenant, result.start), result.start)
            self._last_decide_end[tenant] = result.end
        self.wrap(IncrementalScorer, "decide", "serving.IncrementalScorer.decide",
                  decided, windows=lambda args: [args[1]])
        self.wrap(IncrementalScorer, "merge", "serving.IncrementalScorer.merge",
                  windows=lambda args: [f"{args[1]}:{args[2]}"])
        for method in ("ingest", "pump", "drain", "collect_alarms", "hot_swap"):
            self.wrap(DetectorService, method, f"serving.DetectorService.{method}")

        def published(record, args, result):
            detector = args[2]
            count["serving.ModelRegistry.publish_version.mb"] += sum(
                p.data.nbytes for p in detector.model.parameters()) / 1e6
        self.wrap(ModelRegistry, "publish_version", "serving.ModelRegistry.publish_version",
                  published)

        # repro.analytics
        def observed(record, args, result):
            count["analytics.AnalyticsEngine.observe_block.points"] += len(args[3])
            count["analytics.alerts_fired"] += sum(1 for e in result if e.kind == "fired")
        self.wrap(AnalyticsEngine, "observe_block", "analytics.AnalyticsEngine.observe_block",
                  observed, windows=lambda args: [f"{args[1]}:{args[2]}"])

        # repro.adaptation
        self.wrap(DriftMonitor, "update", "adaptation.DriftMonitor.update")

        def polled(record, args, result):
            for adaptation in result:
                action = "applied" if adaptation.action == "adapted" else adaptation.action
                count[f"adaptation.{action}"] += 1
        self.wrap(AdaptationController, "poll", "adaptation.AdaptationController.poll",
                  polled)

        # data generation
        self.wrap(DatasetRegistry, "load", "data.load_dataset")
        self.wrap(MicroserviceLatencySimulator, "generate",
                  "data.MicroserviceLatencySimulator.generate")

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def summary(self, spans_path: str) -> dict:
        """Per-span-name totals over the run, layer self times over the measured phase."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        begin, end = self.measure
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        layer_self = Counter()
        measured = defaultdict(lambda: [0.0, 0.0])
        with open(spans_path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(spans):
                name, start, stop, parent, windows = record
                duration = stop - start
                self_time = duration - child_time[index]
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += self_time
                if begin is not None and begin <= start and stop <= end:
                    layer_self[name.split(".", 1)[0]] += self_time
                    measured[name][0] += duration
                    measured[name][1] += self_time
                line = {"id": index, "name": name, "start": start, "end": stop,
                        "parent": parent}
                if isinstance(windows, list):
                    line["windows"] = windows
                elif windows is not None:
                    line["window"] = windows
                handle.write(json.dumps(line) + "\n")
        return {
            "spans": {name: {"calls": c, "s": s, "self_s": own}
                      for name, (c, s, own) in totals.items()},
            "layer_self_s": dict(layer_self),
            "measured_s": dict(measured),
            "counters": dict(self.counters),
            "samples": {key: list(values) for key, values in self.samples.items()},
            "span_count": len(spans),
            "spans_path": spans_path,
        }
