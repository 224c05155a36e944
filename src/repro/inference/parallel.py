"""The sharded inference engine: the ``ScoreReducer`` family.

Every reverse-diffusion pass of ``detector.score``, the CRN holdout and the
:class:`~repro.serving.service.DetectorService` hot path runs through one
:class:`ScoreSpec`, and a reducer picks who executes it:

* a :class:`ScoreSpec` factors one batched scoring call into a deterministic
  task ``plan`` ((mask policy, window chunk) pairs in the serial loop's
  order), a parent-side ``draw`` of each task's randomness, and a pure,
  rng-free ``compute`` kernel;
* :class:`SerialScoreReducer` runs the plan in-process;
* :class:`MultiprocessScoreReducer` pipelines the same plan round-robin
  through a :class:`~repro.inference.pool.WorkerPool` of scoring workers —
  the one worker protocol the gradient reducer uses too, so the workers
  read the parameters from the pool's shared-memory block and each task
  message carries only the windows and the noise payload.

Determinism contract: *all* randomness is drawn in the parent, in plan
order, regardless of worker count; tasks are pure given their payload; and
the parent consumes results in plan order.  Scores are therefore invariant
across worker counts, and a 1-worker pool reproduces the serial path
bit for bit (``np.array_equal``, gated in
``tests/test_inference_engine.py::TestMultiprocessScoreReducer``).
The contract covers the whole sampler zoo, stochastic samplers included:
which reverse transitions consume randomness is the sampler's
``samples_noise`` declaration, which ``draw`` honours through
``draw_impute_noise`` — an ``eta > 0`` DDIM jump's noise rides in the task's
:class:`~repro.diffusion.ImputeNoise` payload (and shards with it) exactly
like the adjacent-step DDPM draws.  Samplers with per-pass state (the PNDM
eps history) re-initialise it per ``impute`` call, i.e. per task, so
sharding cannot leak history across chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .pool import WorkerHandler, WorkerPool

__all__ = [
    "ScoreTask",
    "ScoreSpec",
    "ScoreReducer",
    "SerialScoreReducer",
    "MultiprocessScoreReducer",
]

#: ``on_result(task, step_squared)`` with ``step_squared`` mapping progress
#: (1 = noisiest visited step) to ``(task_windows, window, features)`` squared
#: errors.  Called exactly once per task, in plan order.
ResultFn = Callable[["ScoreTask", Dict[int, np.ndarray]], None]


@dataclass(frozen=True)
class ScoreTask:
    """One unit of a batched scoring call: a mask policy over a window chunk."""

    policy_index: int
    start: int   # first window row of the chunk (inclusive)
    stop: int    # last window row of the chunk (exclusive)

    @property
    def size(self) -> int:
        return self.stop - self.start


class ScoreSpec:
    """A batched scoring pass factored for sharded execution.

    The serial scorer interleaves its randomness with its computation; a
    spec splits them so the randomness can stay in the parent while the
    computation fans out.  The contract mirrors
    :class:`~repro.training.ParallelLossSpec`: iterating
    ``compute(windows[t.start:t.stop], t, draw(windows, t, rng))`` over
    ``plan(n)`` must be bit-identical to the serial scoring loop, consuming
    ``rng`` in the same order.
    """

    def build(self) -> List:
        """Materialise the model parameters on the worker side.

        Called once per worker after the spec is unpickled; must return the
        parameters in exactly the order of :meth:`parent_parameters` (each
        worker swaps them to shared-memory views of the parent's values).
        """
        raise NotImplementedError

    def parent_parameters(self) -> List:
        """The live parameter list the parent publishes to the shared block."""
        raise NotImplementedError

    def plan(self, num_windows: int) -> List[ScoreTask]:
        """The task decomposition of one batch, in serial-loop order."""
        raise NotImplementedError

    def draw(self, windows: np.ndarray, task: ScoreTask,
             rng: Optional[np.random.Generator]):
        """Every random draw of one task, executed in the parent in plan order."""
        return None

    def compute(self, windows: np.ndarray, task: ScoreTask,
                payload) -> Dict[int, np.ndarray]:
        """The pure, rng-free scoring kernel of one task.

        ``windows`` is the task's chunk (``task.stop - task.start`` rows);
        returns ``progress -> (chunk, window, features)`` squared errors.
        """
        raise NotImplementedError


class ScoreReducer:
    """Strategy that turns one batch of windows into per-step squared errors.

    The inference-side sibling of :class:`~repro.training.GradientReducer`:
    ``open``/``close`` bracket resource ownership (worker pools, shared
    memory), :meth:`window_errors` executes one batched scoring call.
    """

    def open(self) -> None:
        """Acquire resources (worker pools, shared-memory blocks)."""

    def close(self) -> None:
        """Release resources acquired by :meth:`open`; idempotent."""

    def refresh_parameters(self) -> int:
        """Re-publish the parent parameters after an in-place weight swap.

        Returns the new generation; workers pick the weights up on their
        next task without restarting.  A reducer without workers publishes
        nothing and returns 0.
        """
        return 0

    @property
    def generation(self) -> int:
        """Generation of the last published parameter snapshot (0: none)."""
        return 0

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty without a pool)."""
        return []

    def window_errors(self, windows: np.ndarray,
                      rng: Optional[np.random.Generator],
                      on_result: Optional[ResultFn] = None
                      ) -> Optional[Dict[int, np.ndarray]]:
        """Score one batch of windows through the spec's task plan.

        With the default accumulator, returns ``progress -> (batch, window,
        features)`` summed squared errors (the serial scorer's ``error_sum``).
        A custom ``on_result`` receives each task's raw result in plan order
        instead — offline scoring uses this to scatter-add by window start —
        and the method returns ``None``.
        """
        raise NotImplementedError

    def __enter__(self) -> "ScoreReducer":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _batch_accumulator(num_windows: int):
    """Default result handler: sum task results into per-progress totals."""
    totals: Dict[int, np.ndarray] = {}

    def accumulate(task: ScoreTask, step_squared: Dict[int, np.ndarray]) -> None:
        for progress, squared in step_squared.items():
            if progress not in totals:
                totals[progress] = np.zeros((num_windows,) + squared.shape[1:])
            totals[progress][task.start:task.stop] += squared

    return totals, accumulate


class SerialScoreReducer(ScoreReducer):
    """In-process execution of a :class:`ScoreSpec` (the 1-process path).

    Draw-then-compute per task, in plan order, on the caller's generator —
    by the spec contract this is bit-identical to the pre-engine inline
    scoring loop, and it is the reference the multiprocess reducer is gated
    against.
    """

    def __init__(self, spec: ScoreSpec) -> None:
        self.spec = spec

    def window_errors(self, windows: np.ndarray,
                      rng: Optional[np.random.Generator],
                      on_result: Optional[ResultFn] = None
                      ) -> Optional[Dict[int, np.ndarray]]:
        windows = np.asarray(windows, dtype=np.float64)
        totals = None
        handler = on_result
        if handler is None:
            totals, handler = _batch_accumulator(windows.shape[0])
        for task in self.spec.plan(windows.shape[0]):
            payload = self.spec.draw(windows, task, rng)
            handler(task, self.spec.compute(
                windows[task.start:task.stop], task, payload))
        return totals


class _ScoreHandler(WorkerHandler):
    """The scoring worker: one task's squared errors per request."""

    def __init__(self, spec: ScoreSpec) -> None:
        self.spec = spec

    def build(self) -> List:
        return self.spec.build()

    def serve(self, request) -> Dict[int, np.ndarray]:
        task, chunk, payload = request
        return self.spec.compute(chunk, task, payload)


class MultiprocessScoreReducer(ScoreReducer):
    """Dispatch the spec's task plan across a persistent scoring-worker pool.

    Tasks are assigned round-robin with one task in flight per worker (the
    parent draws/sends task ``i+1`` while workers compute, a simple software
    pipeline), and results are consumed strictly in plan order, so the
    accumulation arithmetic matches the serial reducer addition for
    addition.  Unlike the training reducer there is no gradient averaging —
    ``num_workers=1`` is valid and is exactly the serial computation moved
    into one spawned process (the bit-identity gate).

    The :class:`~repro.inference.pool.WorkerPool` persists across
    :meth:`window_errors` calls (``open``/``close`` or context manager), so
    a long-lived service pays the spawn cost once.  A failed batch closes
    it, and the next call opens a new one.
    """

    def __init__(self, spec: ScoreSpec, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.spec = spec
        self.num_workers = int(num_workers)
        self._pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    def open(self) -> None:
        if self._pool is None:
            pool = WorkerPool(_ScoreHandler(self.spec),
                              self.spec.parent_parameters(), self.num_workers,
                              name="scoring worker")
            pool.start()
            self._pool = pool

    def refresh_parameters(self) -> int:
        if self._pool is None:
            return 0
        return self._pool.publish()

    @property
    def generation(self) -> int:
        return 0 if self._pool is None else self._pool.generation

    @property
    def worker_pids(self) -> List[int]:
        return [] if self._pool is None else self._pool.worker_pids

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    # ------------------------------------------------------------------
    def window_errors(self, windows: np.ndarray,
                      rng: Optional[np.random.Generator],
                      on_result: Optional[ResultFn] = None
                      ) -> Optional[Dict[int, np.ndarray]]:
        self.open()
        pool = self._pool
        windows = np.asarray(windows, dtype=np.float64)
        totals = None
        handler = on_result
        if handler is None:
            totals, handler = _batch_accumulator(windows.shape[0])
        tasks = self.spec.plan(windows.shape[0])
        outstanding: List[Optional[ScoreTask]] = [None] * pool.size

        def collect(worker: int) -> None:
            task, outstanding[worker] = outstanding[worker], None
            handler(task, pool.recv(worker))

        try:
            for index, task in enumerate(tasks):
                worker = index % pool.size
                if outstanding[worker] is not None:
                    collect(worker)
                payload = self.spec.draw(windows, task, rng)
                pool.send(worker, (task, windows[task.start:task.stop], payload))
                outstanding[worker] = task
            # Drain in plan order: the remaining tasks sit on consecutive
            # workers starting at the one task len(tasks)-size was sent to.
            first = len(tasks) % pool.size
            for offset in range(pool.size):
                worker = (first + offset) % pool.size
                if outstanding[worker] is not None:
                    collect(worker)
        except Exception:
            # A failed batch leaves replies in flight; tear the pool down so
            # the lockstep protocol cannot desynchronise on the next call.
            self.close()
            raise
        return totals
