"""Zero-copy parameter transport over shared memory.

The worker pool (:class:`repro.inference.pool.WorkerPool`, which runs both
the gradient and the scoring workers) needs every worker to see the
parent's current parameters at each request.  Pickling the full parameter
list into every worker's pipe costs ``O(parameters x workers)``
serialization *per step*; this module replaces that with a single OS-level
shared-memory block:

* the pool allocates one :class:`SharedParameterBlock` sized to its
  parameter list and :meth:`~SharedParameterBlock.publish`-es the current
  values when they change — one ``memcpy`` per parameter, no pickling,
* each worker attaches once through the picklable
  :class:`SharedParameterSpec` handle and swaps its replica parameters'
  ``data`` to zero-copy NumPy views into the block
  (:meth:`SharedParameterView.attach_to`),
* a generation counter at the head of the block invalidates stale views:
  every ``publish()`` bumps it, every request carries the expected
  generation, and a worker refuses to compute against a mismatched block.

Safety relies on the pool's request/reply protocol — the parent only
publishes while no request is in flight, so no worker is ever reading
while the block changes.  Cleanup is deliberately conservative: the block
owner both closes and unlinks; workers merely detach (and are excluded from
their process-local resource tracker, which would otherwise unlink the
segment out from under the parent on worker exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SharedParameterSpec", "SharedParameterBlock", "SharedParameterView"]

#: Bytes reserved at the head of the block for the int64 generation counter.
HEADER_BYTES = 8


def _parameter_arrays(parameters: Sequence) -> List[np.ndarray]:
    arrays = []
    for parameter in parameters:
        data = np.asarray(getattr(parameter, "data", parameter))
        if data.dtype != np.float64:
            raise TypeError(
                f"shared parameter blocks hold float64 parameters, got {data.dtype}")
        arrays.append(data)
    return arrays


@dataclass(frozen=True)
class SharedParameterSpec:
    """Picklable handle to an existing block: segment name plus the layout."""

    name: str
    shapes: Tuple[Tuple[int, ...], ...]

    @property
    def num_parameters(self) -> int:
        return len(self.shapes)


class _Layout:
    """Byte offsets of the generation header and each parameter slot."""

    def __init__(self, shapes: Sequence[Tuple[int, ...]]) -> None:
        self.shapes = tuple(tuple(int(dim) for dim in shape) for shape in shapes)
        self.offsets: List[int] = []
        cursor = HEADER_BYTES
        for shape in self.shapes:
            self.offsets.append(cursor)
            cursor += int(np.prod(shape, dtype=np.int64)) * 8
        self.total_bytes = max(cursor, HEADER_BYTES + 1)

    def views(self, shm: shared_memory.SharedMemory
              ) -> Tuple[np.ndarray, List[np.ndarray]]:
        generation = np.ndarray((1,), dtype=np.int64, buffer=shm.buf, offset=0)
        slots = [np.ndarray(shape, dtype=np.float64, buffer=shm.buf, offset=offset)
                 for shape, offset in zip(self.shapes, self.offsets)]
        return generation, slots


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for auto-unlink.

    Python's ``resource_tracker`` assumes whoever maps a segment co-owns it
    and unlinks leaked segments at process exit — with a loud "leaked
    shared_memory" warning.  Worker processes only *borrow* the parent's
    block, so they must opt out: via ``track=False`` where available
    (Python >= 3.13) and by suppressing the registration otherwise.  The
    suppression must happen at attach time (not unregister-after-attach):
    workers share one tracker process whose cache is a set, so N registers
    for the same name collapse into one entry and the later unregisters
    would hit KeyErrors inside the tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class SharedParameterBlock:
    """Parent-side owner of one shared-memory parameter block.

    Sized once from the parameter list at construction; the parameter
    *shapes* are fixed for the lifetime of the block (a new pool — and
    with it a new block — is needed whenever the model changes
    architecture, which in practice is never mid-run).
    """

    def __init__(self, parameters: Sequence) -> None:
        arrays = _parameter_arrays(parameters)
        self._layout = _Layout([array.shape for array in arrays])
        self._shm: Optional[shared_memory.SharedMemory] = shared_memory.SharedMemory(
            create=True, size=self._layout.total_bytes)
        self._generation_view, self._slots = self._layout.views(self._shm)
        self._generation_view[0] = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        self._check_open()
        return self._shm.name

    @property
    def generation(self) -> int:
        self._check_open()
        return int(self._generation_view[0])

    @property
    def nbytes(self) -> int:
        return self._layout.total_bytes

    def spec(self) -> SharedParameterSpec:
        """The picklable attach handle shipped to each worker once."""
        self._check_open()
        return SharedParameterSpec(name=self._shm.name, shapes=self._layout.shapes)

    # ------------------------------------------------------------------
    def publish(self, parameters: Sequence) -> int:
        """Copy the current parameter values in and bump the generation.

        Returns the new generation, which the caller stamps on every
        request that follows.  Must only be called while no worker is
        computing (the pool's request/reply protocol guarantees it).
        """
        self._check_open()
        arrays = _parameter_arrays(parameters)
        if len(arrays) != len(self._slots):
            raise ValueError(
                f"block holds {len(self._slots)} parameters, got {len(arrays)}")
        for slot, array in zip(self._slots, arrays):
            if array.shape != slot.shape:
                raise ValueError(
                    f"parameter shape {array.shape} does not match the block "
                    f"slot {slot.shape}; rebuild the block after architecture "
                    "changes")
            np.copyto(slot, array)
        self._generation_view[0] += 1
        return int(self._generation_view[0])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping and unlink the segment; idempotent."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        # The NumPy views export the buffer; drop them before closing or the
        # memoryview release raises BufferError.
        self._generation_view = None
        self._slots = []
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-unlink race
            pass

    def __enter__(self) -> "SharedParameterBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._shm is None:
            raise RuntimeError("shared parameter block is closed")


class SharedParameterView:
    """Worker-side zero-copy window into a parent's parameter block."""

    def __init__(self, spec: SharedParameterSpec) -> None:
        self._layout = _Layout(spec.shapes)
        self._shm: Optional[shared_memory.SharedMemory] = _attach_untracked(spec.name)
        self._generation_view, self._slots = self._layout.views(self._shm)

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The block's current generation (what the parent last published)."""
        self._check_open()
        return int(self._generation_view[0])

    @property
    def slots(self) -> List[np.ndarray]:
        self._check_open()
        return list(self._slots)

    def attach_to(self, parameters: Sequence) -> None:
        """Swap each replica parameter's ``data`` to its shared-memory view.

        After this, the worker reads whatever the parent last published
        without any per-step transfer.  The replica list must mirror the
        parent's parameter list exactly (same count, same order, same
        shapes) — a mismatch means the worker rebuilt a different model
        than the parent is training/serving.
        """
        self._check_open()
        if len(parameters) != len(self._slots):
            raise ValueError(
                f"worker rebuilt {len(parameters)} parameters but the shared "
                f"block holds {len(self._slots)}; the spec's build() must "
                "mirror the parent parameter list")
        for index, (parameter, slot) in enumerate(zip(parameters, self._slots)):
            shape = np.asarray(parameter.data).shape
            if shape != slot.shape:
                raise ValueError(
                    f"parameter {index} has shape {shape} but the shared slot "
                    f"is {slot.shape}")
            parameter.data = slot

    def check_generation(self, expected: int) -> None:
        """Raise if the block no longer holds the generation a message expects."""
        actual = self.generation
        if actual != int(expected):
            raise RuntimeError(
                f"stale shared-parameter view: block is at generation {actual} "
                f"but the message expects {expected}")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the block (never unlinks — the parent owns it)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self._generation_view = None
        self._slots = []
        try:
            shm.close()
        except BufferError:
            # Replica parameters may still hold views into the mapping (the
            # worker is about to exit anyway); the OS reclaims it at process
            # teardown and the parent owns the unlink.
            pass

    def __enter__(self) -> "SharedParameterView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._shm is None:
            raise RuntimeError("shared parameter view is closed")
