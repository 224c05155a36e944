"""Sharded inference and the one worker protocol.

* :class:`WorkerPool` — the spawned workers of both data-parallel engines
  (gradient and scoring): they read the parent's parameters from one
  shared-memory block, answer requests through a picklable
  :class:`WorkerHandler`, fail loudly when a worker dies, and are closed at
  exit if their owner leaks them,
* :class:`ScoreSpec` / :class:`ScoreTask` — one batched scoring call
  factored into parent-side randomness and pure worker-side kernels,
* :class:`SerialScoreReducer` — the in-process path, bit-identical to the
  pre-engine inline scoring loop,
* :class:`MultiprocessScoreReducer` — the same plan pipelined round-robin
  through a :class:`WorkerPool` of scoring workers.

See the README's "Sharded inference" section for the determinism contract
and guidance on when extra score workers help.
"""

from .parallel import (
    MultiprocessScoreReducer,
    ScoreReducer,
    ScoreSpec,
    ScoreTask,
    SerialScoreReducer,
)
from .pool import WorkerHandler, WorkerPool

__all__ = [
    "MultiprocessScoreReducer",
    "ScoreReducer",
    "ScoreSpec",
    "ScoreTask",
    "SerialScoreReducer",
    "WorkerHandler",
    "WorkerPool",
]
