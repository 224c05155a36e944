"""Callback protocol and stock callbacks for the training engine.

A callback observes the :class:`~repro.training.Trainer` loop through four
hooks — ``on_train_start``, ``on_epoch_start``, ``on_batch_end``,
``on_epoch_end`` (plus ``on_train_end``) — and may request a stop by setting
``state.stop_requested``.  The stock callbacks cover the needs of every
detector in the repository:

* :class:`LossHistory` — per-epoch (and optionally per-batch) loss curve,
* :class:`EarlyStopping` — patience on the train or a held-out loss, with
  best-weight restoration,
* :class:`LRSchedule` — drives a ``StepLR`` / ``CosineLR`` schedule once per
  epoch,
* :class:`Checkpoint` — periodic and best-loss snapshots through
  :mod:`repro.nn.serialization`, resumable mid-run.

Callbacks that carry state across a checkpoint/resume boundary implement
``state_dict()`` / ``load_state_dict()``; the trainer aggregates them into
its own checkpoint payload.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn.serialization import atomic_save_checkpoint

__all__ = ["Callback", "LossHistory", "EarlyStopping", "LRSchedule",
           "Checkpoint", "monitored_loss"]


def monitored_loss(state) -> float:
    """The loss the stopping/best-snapshot logic should track for this epoch.

    The held-out validation loss of the epoch just completed when the trainer
    ran a ``validate_fn`` (``state.val_losses`` has one entry per finished
    epoch), the mean training loss otherwise.  Centralised so
    :class:`EarlyStopping` and :class:`Checkpoint.save_best` can never
    disagree about which metric "best" means.
    """
    if state.val_losses and len(state.val_losses) == state.epoch:
        return float(state.val_losses[-1])
    return float(state.epoch_losses[-1])


class Callback:
    """Base class: every hook is a no-op, override what you need."""

    def on_train_start(self, trainer, state) -> None:
        pass

    def on_epoch_start(self, trainer, state) -> None:
        pass

    def on_batch_end(self, trainer, state) -> None:
        pass

    def on_epoch_end(self, trainer, state) -> None:
        pass

    def on_train_end(self, trainer, state) -> None:
        pass

    # Optional persistence across checkpoint/resume; None means stateless.
    def state_dict(self) -> Optional[dict]:
        return None

    def load_state_dict(self, state: dict) -> None:
        pass

    # Optional *array* persistence: state too large for the JSON metadata
    # (e.g. EarlyStopping's best-epoch weights) rides in the checkpoint's
    # array payload instead, namespaced by the trainer per callback index.
    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        pass


class LossHistory(Callback):
    """Record the loss curve: per-epoch means and optionally every batch."""

    def __init__(self, record_batches: bool = False) -> None:
        self.record_batches = record_batches
        self.epoch_losses: List[float] = []
        self.batch_losses: List[float] = []

    def on_batch_end(self, trainer, state) -> None:
        if self.record_batches:
            self.batch_losses.append(state.last_loss)

    def on_epoch_end(self, trainer, state) -> None:
        self.epoch_losses.append(state.epoch_losses[-1])

    def state_dict(self) -> dict:
        return {"epoch_losses": list(self.epoch_losses),
                "batch_losses": list(self.batch_losses)}

    def load_state_dict(self, state: dict) -> None:
        self.epoch_losses = [float(v) for v in state.get("epoch_losses", [])]
        self.batch_losses = [float(v) for v in state.get("batch_losses", [])]


class EarlyStopping(Callback):
    """Stop training when the monitored loss stops improving.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving epochs tolerated before the stop
        is requested.
    min_delta:
        Minimum decrease of the monitored value that counts as improvement.
    restore_best:
        On train end, copy the parameters of the best epoch back into the
        model (only when a later epoch was worse).
    monitor:
        ``None`` monitors :func:`monitored_loss` — the held-out validation
        loss whenever the trainer evaluates a ``validate_fn``, the mean
        training loss of the epoch otherwise.  Pass a callable
        ``(trainer, state) -> float`` to monitor something else entirely.
    """

    def __init__(self, patience: int = 3, min_delta: float = 0.0,
                 restore_best: bool = True,
                 monitor: Optional[Callable] = None) -> None:
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.min_delta = float(min_delta)
        self.restore_best = restore_best
        self.monitor = monitor
        self.best_value = float("inf")
        self.best_epoch: Optional[int] = None
        self.wait = 0
        self._best_params: Optional[List[np.ndarray]] = None

    def on_epoch_end(self, trainer, state) -> None:
        if self.monitor is not None:
            value = float(self.monitor(trainer, state))
        else:
            value = monitored_loss(state)
        if value < self.best_value - self.min_delta:
            self.best_value = value
            self.best_epoch = state.epoch - 1  # epoch just completed
            self.wait = 0
            if self.restore_best:
                self._best_params = [np.asarray(p.data).copy()
                                     for p in trainer.parameters]
        else:
            self.wait += 1
            if self.wait >= self.patience:
                state.stop_requested = True
                state.stop_reason = (
                    f"early stop: no improvement for {self.patience} epochs "
                    f"(best {self.best_value:.6f} at epoch {self.best_epoch})"
                )

    def on_train_end(self, trainer, state) -> None:
        last_epoch = state.epoch - 1
        if (self.restore_best and self._best_params is not None
                and self.best_epoch != last_epoch):
            for p, best in zip(trainer.parameters, self._best_params):
                p.data = best.copy()

    def state_dict(self) -> dict:
        return {"best_value": self.best_value, "best_epoch": self.best_epoch,
                "wait": self.wait}

    def load_state_dict(self, state: dict) -> None:
        self.best_value = float(state["best_value"])
        self.best_epoch = state.get("best_epoch")
        self.wait = int(state["wait"])

    # The best-epoch weights ride in the checkpoint's array payload: without
    # them, a resumed run that never improves again would finish with its
    # last-epoch weights instead of the best ones.
    def state_arrays(self) -> Dict[str, np.ndarray]:
        if self._best_params is None:
            return {}
        return {f"best.{index}": p for index, p in enumerate(self._best_params)}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        if not arrays:
            self._best_params = None
            return
        self._best_params = [
            np.asarray(arrays[f"best.{index}"], dtype=np.float64).copy()
            for index in range(len(arrays))
        ]


class LRSchedule(Callback):
    """Advance a learning-rate schedule (``StepLR``/``CosineLR``) each epoch."""

    def __init__(self, schedule) -> None:
        self.schedule = schedule

    def on_epoch_end(self, trainer, state) -> None:
        self.schedule.step()

    def state_dict(self) -> Optional[dict]:
        if hasattr(self.schedule, "state_dict"):
            return self.schedule.state_dict()
        return None

    def load_state_dict(self, state: dict) -> None:
        if hasattr(self.schedule, "load_state_dict"):
            self.schedule.load_state_dict(state)


class Checkpoint(Callback):
    """Write resumable training snapshots through :mod:`repro.nn.serialization`.

    Parameters
    ----------
    path:
        Destination ``.npz`` file of the periodic snapshot; it is atomically
        replaced every ``every`` epochs and at train end.
    every:
        Snapshot period in epochs.
    save_best:
        Additionally keep the best-monitored-loss snapshot under
        ``<path stem>.best.npz``.  "Best" means :func:`monitored_loss`: the
        held-out validation loss when the trainer evaluates one, the epoch
        train loss otherwise — always the same metric early stopping tracks.
    extra_metadata:
        Extra JSON-serialisable entries merged into every snapshot's
        metadata (e.g. the CLI records the detector config and dataset so
        ``repro train --resume`` can rebuild the exact run).  Keys must not
        collide with the trainer's own state fields.

    A snapshot holds the full trainer state — parameters, optimizer slots,
    RNG state, loss history and callback states — so
    :meth:`repro.training.Trainer.load_state_dict` resumes mid-run with
    bit-identical continuation (see ``tests/test_training_engine.py``).
    """

    def __init__(self, path: str, every: int = 1, save_best: bool = False,
                 extra_metadata: Optional[dict] = None) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.path = path
        self.every = every
        self.save_best = save_best
        self.extra_metadata = dict(extra_metadata or {})
        self.best_value = float("inf")
        self.last_saved_epoch: Optional[int] = None

    @property
    def best_path(self) -> str:
        stem = self.path
        for suffix in (".npz",):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        return stem + ".best.npz"

    def _write(self, payload, path: str) -> None:
        arrays, metadata = payload
        if self.extra_metadata:
            collisions = set(self.extra_metadata) & set(metadata)
            if collisions:
                raise ValueError(
                    f"extra_metadata keys collide with trainer state: {sorted(collisions)}"
                )
            metadata = {**metadata, **self.extra_metadata}
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        atomic_save_checkpoint(path, arrays, metadata)

    def on_epoch_end(self, trainer, state) -> None:
        monitored = monitored_loss(state)
        periodic = state.epoch % self.every == 0
        best = self.save_best and monitored < self.best_value
        if not (periodic or best):
            return
        payload = trainer.state_dict()  # serialized once for both targets
        if periodic:
            self._write(payload, self.path)
            self.last_saved_epoch = state.epoch
        if best:
            self.best_value = monitored
            self._write(payload, self.best_path)

    def on_train_end(self, trainer, state) -> None:
        # Always rewrite: an earlier callback (EarlyStopping runs before this
        # one in both the detector and baseline wiring) may have restored the
        # best weights after the last periodic save, so the epoch number
        # alone cannot prove the snapshot on disk is current.
        self._write(trainer.state_dict(), self.path)
        self.last_saved_epoch = state.epoch

    def state_dict(self) -> dict:
        return {"best_value": self.best_value,
                "last_saved_epoch": self.last_saved_epoch}

    def load_state_dict(self, state: dict) -> None:
        self.best_value = float(state["best_value"])
        saved = state.get("last_saved_epoch")
        self.last_saved_epoch = int(saved) if saved is not None else None
