"""Unified training engine: Trainer + callbacks + vectorized window loading.

This package is the third subsystem of the reproduction (after the serving
layer and the grad-free inference engine): one reusable gradient-descent
loop for the ImDiffusion denoiser and all nine trainable baselines.

* :class:`WindowLoader` — vectorized shuffled mini-batches over pre-cut
  window arrays (single fancy-index gather per batch, RNG-identical to the
  legacy hand-rolled loops),
* :func:`split_windows` — deterministic held-out validation split over the
  same aligned arrays (one permutation draw; none at fraction 0),
* :class:`Trainer` — the epoch/batch loop (loss, backward, gradient clip,
  optimizer step) with per-epoch held-out validation (``validate_fn``) and
  mid-run checkpoint/resume,
* callbacks — :class:`LossHistory`, :class:`EarlyStopping`,
  :class:`LRSchedule` (``StepLR``/``CosineLR``), :class:`Checkpoint`.
  Early stopping and best snapshots both track :func:`monitored_loss` —
  the held-out loss whenever validation runs,
* :class:`ParallelTrainer` — data-parallel execution of the same loop:
  batches are sharded across spawned gradient workers through the
  :class:`GradientReducer` seam, and the parent averages shard gradients
  before the single optimizer step (bit-identical to :class:`Trainer` at
  ``num_workers=1``).

Quickstart::

    from repro.nn import Adam
    from repro.training import EarlyStopping, Trainer, WindowLoader

    loader = WindowLoader(windows, batch_size=16, rng=rng)
    trainer = Trainer(model.parameters(), Adam(model.parameters(), lr=1e-3),
                      lambda batch, state: loss_of(batch.data),
                      grad_clip=5.0, callbacks=[EarlyStopping(patience=3)])
    result = trainer.fit(loader, epochs=50)
"""

from .callbacks import (
    Callback,
    Checkpoint,
    EarlyStopping,
    LossHistory,
    LRSchedule,
    monitored_loss,
)
from .loader import (
    VALIDATION_SEED_OFFSET,
    VALIDATION_SPLITS,
    Batch,
    WindowLoader,
    split_windows,
)
from .parallel import (
    AdversarialMethodLossSpec,
    MethodLossSpec,
    MultiprocessReducer,
    ParallelLossSpec,
    ParallelTrainer,
    SpecReducer,
)
from .trainer import GradientReducer, SerialReducer, Trainer, TrainResult, TrainState
from .variance import antithetic_loss, crn_validation_rng

__all__ = [
    "Batch",
    "WindowLoader",
    "split_windows",
    "VALIDATION_SEED_OFFSET",
    "VALIDATION_SPLITS",
    "Trainer",
    "TrainResult",
    "TrainState",
    "GradientReducer",
    "SerialReducer",
    "ParallelLossSpec",
    "MethodLossSpec",
    "AdversarialMethodLossSpec",
    "SpecReducer",
    "MultiprocessReducer",
    "ParallelTrainer",
    "Callback",
    "LossHistory",
    "EarlyStopping",
    "LRSchedule",
    "Checkpoint",
    "monitored_loss",
    "antithetic_loss",
    "crn_validation_rng",
]
