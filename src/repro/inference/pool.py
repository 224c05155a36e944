"""The one worker protocol: a shared-memory pool of spawned workers.

Gradient workers (:mod:`repro.training.parallel`) and scoring workers
(:mod:`repro.inference.parallel`) run the same protocol, and
:class:`WorkerPool` is its only implementation:

* it spawns ``num_workers`` daemon processes with the ``spawn`` start
  method, one duplex pipe each, all before waiting on any of them;
* it owns the :class:`~repro.nn.shm.SharedParameterBlock` through which the
  workers read the parent's parameters: created and published (generation
  1) by :meth:`WorkerPool.start`, re-published by :meth:`WorkerPool.publish`,
  unlinked by :meth:`WorkerPool.close`;
* every worker runs one loop: receive the pool's picklable
  :class:`WorkerHandler`, build a replica once through it, swap the
  replica's parameters to zero-copy views of the block, then answer each
  ``(generation, request)`` with ``("ok", reply)`` or ``("error",
  traceback)``;
* a worker that dies surfaces as one :class:`RuntimeError` naming its index,
  pid and exit code, and the pool closes itself.

What the requests mean belongs to the reducers: scatter/gather over batch
shards for gradients, a round-robin pipeline of tasks for scores.

A pool cannot leak: :meth:`WorkerPool.close` is idempotent and safe on a
half-started pool, and every started pool is tracked in a weak set that an
``atexit`` hook closes, so an exception, an early ``sys.exit`` or a Ctrl-C
leaves no worker process and no orphaned shared-memory segment behind.
"""

from __future__ import annotations

import atexit
import multiprocessing
import traceback
import weakref
from typing import List, Optional, Sequence

from ..nn.shm import SharedParameterBlock, SharedParameterSpec, SharedParameterView

__all__ = ["WorkerHandler", "WorkerPool"]

# Started pools whose close() must run even if their owner never reaches
# its finally block.  Weak references: a pool that was garbage-collected
# needs no cleanup call.
_OPEN_POOLS: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_INSTALLED = False


def _close_open_pools() -> None:  # pragma: no cover - exercised via subprocess
    for pool in list(_OPEN_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _track(pool: "WorkerPool") -> None:
    global _ATEXIT_INSTALLED
    if not _ATEXIT_INSTALLED:
        # Registered lazily so importing repro never touches atexit; LIFO
        # ordering runs this hook before multiprocessing's own exit handler,
        # so workers get their shutdown sentinel while pipes are still alive.
        atexit.register(_close_open_pools)
        _ATEXIT_INSTALLED = True
    _OPEN_POOLS.add(pool)


class WorkerHandler:
    """The worker side of a pool: picklable, shipped to each worker once."""

    def build(self) -> List:
        """Build the replica; return its parameters in the block's order."""
        raise NotImplementedError

    def serve(self, request):
        """Answer one request against the replica (its parameters attached)."""
        raise NotImplementedError


def _worker_loop(conn, block: SharedParameterSpec) -> None:
    """The loop every pool worker runs until the ``None`` sentinel.

    The first message is the pool's :class:`WorkerHandler`.  A start-up
    failure is remembered and returned for each request, and a request's
    exception ships back as its formatted traceback, so the parent never
    loses pipe lockstep.
    """
    view: Optional[SharedParameterView] = None
    failure: Optional[str] = None
    try:
        handler: WorkerHandler = conn.recv()
        parameters = handler.build()
        view = SharedParameterView(block)
        view.attach_to(parameters)
    except Exception:  # noqa: BLE001 - reported on the first request
        failure = traceback.format_exc()
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent died or closed the pipe
            break
        if message is None:
            break
        generation, request = message
        try:
            if failure is not None:
                raise RuntimeError("worker failed to initialise:\n" + failure)
            view.check_generation(generation)
            conn.send(("ok", handler.serve(request)))
        except Exception:  # noqa: BLE001 - shipped to the parent verbatim
            conn.send(("error", traceback.format_exc()))
    if view is not None:
        view.close()


class WorkerPool:
    """Spawned workers that read ``parameters`` through one shared block.

    ``handler`` is the :class:`WorkerHandler` every worker runs;
    ``parameters`` is the parent's live parameter list, copied into the
    block at :meth:`start` and at every :meth:`publish`.  Requests go out
    with :meth:`send`, stamped with the current generation, and replies come
    back in order with :meth:`recv`.  When a request fails — a worker error
    or a dead worker — the pool closes, because replies may still be in
    flight on the other pipes.
    """

    def __init__(self, handler: WorkerHandler, parameters: Sequence,
                 num_workers: int, name: str = "worker") -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.handler = handler
        self.parameters = list(parameters)
        self.num_workers = int(num_workers)
        self.name = name
        #: Generation of the last publish; 0 until the pool starts.
        self.generation = 0
        self._block: Optional[SharedParameterBlock] = None
        self._processes: List = []
        self._connections: List = []

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return bool(self._processes)

    @property
    def size(self) -> int:
        return len(self._connections)

    @property
    def worker_pids(self) -> List[int]:
        return [process.pid for process in self._processes]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Publish the parameters and spawn the workers; idempotent once started."""
        if self._processes:
            return
        context = multiprocessing.get_context("spawn")  # fork-free by design
        try:
            self._block = SharedParameterBlock(self.parameters)
            self.publish()
            block = self._block.spec()
            for index in range(self.num_workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_loop, args=(child_conn, block),
                    name=f"{self.name} {index}", daemon=True)
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._connections.append(parent_conn)
            # The handler goes through the pipe, not the process arguments:
            # an argument larger than the OS pipe buffer blocks
            # Process.start until that worker has imported repro, so the
            # workers would pay their imports one after another.  No
            # handshake either: the first request waits for the imports.
            for conn in self._connections:
                conn.send(self.handler)
        except Exception:
            # A partial pool must never survive: reap what did spawn so a
            # retry starts from scratch instead of silently running with
            # fewer workers than requested.
            self.close()
            raise
        _track(self)

    def publish(self) -> int:
        """Copy the parent's parameters into the block; returns the generation.

        Only call it while no request is in flight.
        """
        self.generation = self._block.publish(self.parameters)
        return self.generation

    def send(self, worker: int, request) -> None:
        """Send ``request`` to ``worker``, stamped with the current generation."""
        try:
            self._connections[worker].send((self.generation, request))
        except OSError:
            raise self._died(worker) from None

    def recv(self, worker: int):
        """The reply to ``worker``'s oldest outstanding request."""
        try:
            status, reply = self._connections[worker].recv()
        except (EOFError, OSError):
            raise self._died(worker) from None
        if status == "error":
            self.close()
            raise RuntimeError(f"{self.name} failed:\n{reply}")
        return reply

    def _died(self, worker: int) -> RuntimeError:
        process = self._processes[worker]
        process.join(timeout=1.0)
        self.close()
        return RuntimeError(
            f"{self.name} {worker} (pid {process.pid}) died with exit code "
            f"{process.exitcode}; the pool is closed")

    def close(self) -> None:
        """Shut the workers down and unlink the block; idempotent."""
        connections, self._connections = self._connections, []
        processes, self._processes = self._processes, []
        for conn in connections:
            try:
                conn.send(None)
            except OSError:
                pass
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=1.0)
        for conn in connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        block, self._block = self._block, None
        if block is not None:
            block.close()
        _OPEN_POOLS.discard(self)

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
