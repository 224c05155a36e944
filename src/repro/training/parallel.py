"""Data-parallel training: sharded multiprocess gradient workers.

:class:`ParallelTrainer` scales the shared :class:`~repro.training.Trainer`
across CPU cores without changing its semantics: every mini-batch is split
into contiguous per-sample shards, ``num_workers`` spawned processes each run
one forward/backward over their shard, and the parent weight-averages the
shard gradients before taking the *single* optimizer step the serial loop
would have taken.  The decomposition is exact — for a loss of the form
``sum(errors) / weight`` the full-batch gradient equals
``sum(w_i * g_i) / sum(w_i)`` over the shards — so data parallelism is a pure
execution detail:

* the random stream is worker-count invariant: all batch-level randomness is
  drawn **in the parent** (:meth:`ParallelLossSpec.draw`) before sharding,
* callbacks, gradient clipping, checkpointing and resume run in the parent,
  untouched; ``num_workers`` is not part of the checkpoint, so a snapshot can
  be resumed under a different worker count,
* at ``num_workers=1`` no process is spawned and the loop is bit-identical
  to the serial :class:`~repro.training.Trainer` (regression-tested),
* at ``num_workers>1`` runs are bitwise reproducible for a fixed worker
  count and numerically equivalent (up to float summation order) across
  worker counts.

The gradient workers run in a :class:`~repro.inference.pool.WorkerPool`,
the one worker protocol the scoring reducer uses too.  Workers are
``spawn``-started (fork-free), so the :class:`ParallelLossSpec` must be
picklable; it is shipped once at pool start-up (module/optimizer transport
is provided by ``repro.nn``'s pickle support).  Parameters never cross the
pipes: each worker reads them from the pool's shared-memory block, which
the parent re-publishes before every round, so a step message carries only
the batch shard, its random payload and the block generation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..inference.pool import WorkerHandler, WorkerPool
from .loader import Batch
from .trainer import GradientReducer, Trainer, TrainState

__all__ = [
    "ParallelLossSpec",
    "MethodLossSpec",
    "AdversarialMethodLossSpec",
    "SpecReducer",
    "MultiprocessReducer",
    "ParallelTrainer",
]


class ParallelLossSpec:
    """A training loss factored for data-parallel execution.

    The serial engine consumes an opaque closure ``loss_fn(batch, state)``;
    workers cannot, both because closures do not pickle and because any
    randomness drawn *inside* the loss would depend on how the batch was
    sharded.  A spec splits the closure into three picklable parts:

    * :meth:`draw` — every random draw the loss makes for a batch, executed
      in the parent on the trainer's generator *before* sharding.  Returns a
      tuple of arrays whose leading dimension indexes batch samples, so the
      payload shards alongside the batch.  Specs of deterministic losses
      return the default empty tuple.
    * :meth:`compute` — the pure, rng-free loss of one (shard, payload
      shard); runs identically in the parent (``num_workers=1``) and in a
      worker.
    * :meth:`weight` — the shard's weight in the gradient average.  The
      default (shard size) is exact for per-sample mean losses; losses
      normalised by something else (e.g. a masked-region element count)
      override it so ``sum(w_i * g_i) / sum(w_i)`` reproduces the full-batch
      gradient.

    The contract: ``compute(batch, draw(batch, rng, state), state)`` must be
    bit-identical to the serial closure, consuming ``rng`` in the same order.

    Specs of adversarially trained models additionally set ``has_adversary``
    and implement the adversary hooks (see
    :class:`AdversarialMethodLossSpec`): before each main-loss step the
    reducers run one *adversary round* — compute ``adversary_compute`` over
    the (sharded) batch, reduce the gradients onto the parent's adversary
    parameters with the same weighted average, and take the adversary's
    optimizer step in the parent — reproducing the serial GAN alternation
    (discriminator step inside the loss closure) without worker replicas
    ever stepping a model of their own.
    """

    #: Whether the spec carries a second, adversarially trained model whose
    #: parameters update before every main-loss computation.
    has_adversary: bool = False

    def build(self) -> List:
        """Materialise the parameter list on the worker side.

        Called once per worker after the spec is unpickled; must return the
        trainable parameters in exactly the order of the parent trainer's
        parameter list (each step overwrites them with the parent's data).
        """
        raise NotImplementedError

    def draw(self, batch: Batch, rng: Optional[np.random.Generator],
             state: TrainState) -> Tuple[np.ndarray, ...]:
        return ()

    def compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                state: TrainState):
        raise NotImplementedError

    def weight(self, batch: Batch, payload: Tuple[np.ndarray, ...]) -> float:
        return float(batch.size)

    # -- adversary hooks (no-ops unless ``has_adversary``) ---------------
    def build_adversary(self) -> List:
        """Materialise the adversary parameter list on the worker side."""
        return []

    def adversary_parameters(self) -> List:
        """The parent-side adversary parameters (same order as the workers')."""
        return []

    def adversary_compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                          state: TrainState):
        raise NotImplementedError

    def adversary_step(self) -> None:
        """Take the adversary's optimizer step in the parent."""
        raise NotImplementedError


class MethodLossSpec(ParallelLossSpec):
    """Spec over methods of a picklable owner (the baseline detectors).

    Ships the owning detector to each worker once and resolves the loss and
    parameter-list methods by name, so a baseline opts into data parallelism
    by exposing its loss as a *method* (picklable by reference) instead of a
    local closure.  The loss must be rng-free and side-effect free in
    ``compute``: the worker-side owner is a replica, so anything the loss
    mutated there would diverge from the parent.  Losses that need
    randomness name a ``draw_method`` — ``draw_method(batch, rng, state)``
    runs in the parent on the trainer's generator and its result is handed
    to the loss as a ``payload`` argument (sharded alongside the batch), so
    the random stream stays worker-count invariant; the loss method then
    takes ``(batch, payload, state)`` instead of ``(batch, state)``.
    """

    def __init__(self, owner, loss_method: str,
                 parameters_method: str = "_trainer_parameters",
                 draw_method: Optional[str] = None) -> None:
        self.owner = owner
        self.loss_method = loss_method
        self.parameters_method = parameters_method
        self.draw_method = draw_method

    def build(self) -> List:
        return list(getattr(self.owner, self.parameters_method)())

    def draw(self, batch: Batch, rng: Optional[np.random.Generator],
             state: TrainState) -> Tuple[np.ndarray, ...]:
        if self.draw_method is None:
            return ()
        return tuple(getattr(self.owner, self.draw_method)(batch, rng, state))

    def compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                state: TrainState):
        if self.draw_method is None:
            return getattr(self.owner, self.loss_method)(batch, state)
        return getattr(self.owner, self.loss_method)(batch, payload, state)


class AdversarialMethodLossSpec(MethodLossSpec):
    """Method spec for GAN-style baselines with a parent-stepped adversary.

    The serial GAN closures interleave a discriminator update into the loss
    function; sharded workers cannot replay that (each replica would step a
    private discriminator on its shard and diverge).  This spec factors the
    alternation the same way the main loss is factored: workers compute the
    *gradients* of ``adversary_loss_method`` on their shard, the parent
    weight-averages them onto the real discriminator and steps its optimizer
    (``adversary_optimizer_attr``, an attribute of the owner), and only then
    is the main loss computed against the freshly updated adversary — the
    exact serial ordering.  Both loss methods take ``(batch, payload,
    state)``, sharing one payload so e.g. MAD-GAN's latent draw feeds the
    discriminator and generator phases with the same noise, as the serial
    closure does.
    """

    has_adversary = True

    def __init__(self, owner, loss_method: str, adversary_loss_method: str,
                 parameters_method: str = "_trainer_parameters",
                 adversary_parameters_method: str = "_adversary_parameters",
                 adversary_optimizer_attr: str = "_discriminator_opt",
                 draw_method: Optional[str] = None) -> None:
        super().__init__(owner, loss_method, parameters_method,
                         draw_method=draw_method)
        self.adversary_loss_method = adversary_loss_method
        self.adversary_parameters_method = adversary_parameters_method
        self.adversary_optimizer_attr = adversary_optimizer_attr

    def compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                state: TrainState):
        return getattr(self.owner, self.loss_method)(batch, payload, state)

    def build_adversary(self) -> List:
        return list(getattr(self.owner, self.adversary_parameters_method)())

    def adversary_parameters(self) -> List:
        return list(getattr(self.owner, self.adversary_parameters_method)())

    def adversary_compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                          state: TrainState):
        return getattr(self.owner, self.adversary_loss_method)(batch, payload, state)

    def adversary_step(self) -> None:
        getattr(self.owner, self.adversary_optimizer_attr).step()


class SpecReducer(GradientReducer):
    """In-process execution of a :class:`ParallelLossSpec`.

    The ``num_workers=1`` path: no process is spawned and no arrays are
    copied, so a :class:`ParallelTrainer` with one worker runs the exact
    serial loop — the spec contract then guarantees bit-identity with a
    :class:`~repro.training.Trainer` over the equivalent closure.
    """

    def __init__(self, spec: ParallelLossSpec) -> None:
        self.spec = spec
        self._trainer: Optional[Trainer] = None

    def open(self, trainer: Trainer) -> None:
        self._trainer = trainer

    def accumulate(self, batch: Batch, state: TrainState) -> float:
        payload = self.spec.draw(batch, self._trainer.rng, state)
        if self.spec.has_adversary:
            # Serial adversary alternation: zero the adversary's grads,
            # backpropagate its loss over the full batch and step its
            # optimizer before the main loss sees it — the exact sequence
            # the legacy GAN closures ran inline.
            for parameter in self.spec.adversary_parameters():
                parameter.grad = None
            adversary_loss = self.spec.adversary_compute(batch, payload, state)
            adversary_loss.backward()
            self.spec.adversary_step()
        loss = self.spec.compute(batch, payload, state)
        loss.backward()
        return float(loss.data)


def _shard_bounds(num_samples: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``(start, stop)`` shard bounds; empty shards dropped."""
    base, extra = divmod(num_samples, num_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        bounds.append((start, start + size))
        start += size
    return bounds


class _GradientHandler(WorkerHandler):
    """The gradient worker: one shard's loss, weight and gradients per request."""

    def __init__(self, spec: ParallelLossSpec) -> None:
        self.spec = spec

    def build(self) -> List:
        self._parameters = list(self.spec.build())
        self._adversary = (list(self.spec.build_adversary())
                           if self.spec.has_adversary else [])
        # The block holds main then adversary parameters, so one publish
        # refreshes the whole replica.
        return self._parameters + self._adversary

    def serve(self, request):
        phase, arrays, indices, payload, state = request
        # Zero both groups: the main loss of a GAN backpropagates into the
        # adversary too (through the fooling term), and those stray grads
        # must not leak into the next adversary round.
        for parameter in self._parameters + self._adversary:
            parameter.grad = None
        batch = Batch(arrays=arrays, indices=indices)
        if phase == "adversary":
            loss = self.spec.adversary_compute(batch, payload, state)
            report = self._adversary
        else:
            loss = self.spec.compute(batch, payload, state)
            report = self._parameters
        loss.backward()
        # None marks a parameter the loss did not touch; it must stay None
        # through the reduction, because the optimizers skip None-grad
        # parameters entirely (no moment decay) and the parallel run must
        # match that serial semantic.
        return (float(loss.data), float(self.spec.weight(batch, payload)),
                [parameter.grad for parameter in report])


class MultiprocessReducer(GradientReducer):
    """Shard each batch across spawned workers and average their gradients.

    The :class:`~repro.inference.pool.WorkerPool` lives for the duration of
    one :meth:`Trainer.fit` call (``open``/``close``); per step the parent
    publishes the current parameters to the pool's shared-memory block,
    scatters contiguous shards, and combines the replies in shard order as
    ``sum(w_i * g_i) / sum(w_i)`` — the exact full-batch gradient for every
    spec that honours the :class:`ParallelLossSpec` weight contract.  A
    batch smaller than the pool simply leaves the trailing workers idle for
    that step.  ``close()`` is idempotent and runs as a context manager
    (inherited from :class:`~repro.training.GradientReducer`).
    """

    def __init__(self, spec: ParallelLossSpec, num_workers: int) -> None:
        if num_workers < 2:
            raise ValueError("MultiprocessReducer needs at least 2 workers; "
                             "use SpecReducer for the in-process path")
        self.spec = spec
        self.num_workers = int(num_workers)
        self._trainer: Optional[Trainer] = None
        self._pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    def open(self, trainer: Trainer) -> None:
        self._trainer = trainer
        if self._pool is None:
            # Adversary parameters ride in the same block, after the
            # trainer's own, so one publish refreshes both models.
            pool = WorkerPool(
                _GradientHandler(self.spec),
                list(trainer.parameters) + list(self.spec.adversary_parameters()),
                self.num_workers, name="gradient worker")
            pool.start()
            self._pool = pool

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _shard_request(phase: str, batch: Batch,
                       payload: Tuple[np.ndarray, ...], state: TrainState,
                       start: int, stop: int):
        """The request for one shard — parameter-free by design.

        Everything that scales with model size travels through the pool's
        shared-memory block; what crosses the pipe is only the phase tag
        (``"loss"`` or ``"adversary"``), the shard's slice of the batch and
        payload arrays, and a slim train state (regression-tested: pickled
        size is independent of the parameter count).
        """
        return (
            phase,
            tuple(array[start:stop] for array in batch.arrays),
            batch.indices[start:stop],
            tuple(array[start:stop] for array in payload),
            state,
        )

    def _sharded_round(self, phase: str, batch: Batch,
                       payload: Tuple[np.ndarray, ...], state: TrainState,
                       targets: Sequence) -> float:
        """One scatter/gather round: leave the reduced gradients on ``targets``.

        Publishes the current parameters (so the workers see the freshest
        weights — in particular the adversary step taken between the two
        rounds of a GAN batch), shards the batch, and folds the replies as
        ``sum(w_i * g_i) / sum(w_i)``.  Returns the weighted batch loss.
        """
        pool = self._pool
        bounds = _shard_bounds(batch.size, self.num_workers)
        pool.publish()
        slim_state = TrainState(epoch=state.epoch, step=state.step,
                                batch=state.batch, last_loss=state.last_loss)
        for worker, (start, stop) in enumerate(bounds):
            pool.send(worker, self._shard_request(
                phase, batch, payload, slim_state, start, stop))
        replies = [pool.recv(worker) for worker in range(len(bounds))]

        if len(replies) == 1:
            # Single shard (batch smaller than the pool): the worker's output
            # IS the batch output — no averaging, bitwise identical to a
            # one-worker step.
            loss_value, _, gradients = replies[0]
            for parameter, gradient in zip(targets, gradients):
                parameter.grad = gradient
            return loss_value

        total_weight = 0.0
        total_loss = 0.0
        totals: List[Optional[np.ndarray]] = [None] * len(targets)
        for loss_value, weight, gradients in replies:
            total_weight += weight
            total_loss += weight * loss_value
            for index, gradient in enumerate(gradients):
                if gradient is None:
                    continue
                scaled = weight * gradient
                totals[index] = scaled if totals[index] is None \
                    else totals[index] + scaled
        if total_weight <= 0:
            raise RuntimeError("gradient workers reported non-positive total weight")
        # A parameter no shard touched keeps grad=None, exactly as a serial
        # backward would have left it (the optimizers skip such parameters).
        for parameter, total in zip(targets, totals):
            parameter.grad = None if total is None else total / total_weight
        return total_loss / total_weight

    def accumulate(self, batch: Batch, state: TrainState) -> float:
        if self._pool is None or not self._pool.is_open:
            raise RuntimeError("the gradient worker pool is not open; call "
                               "open() first")
        payload = self.spec.draw(batch, self._trainer.rng, state)
        if self.spec.has_adversary:
            # Round 1 — discriminator: sharded gradients of the adversary
            # loss, reduced onto the parent's adversary parameters, then the
            # adversary's own optimizer step (unclipped, as in the serial
            # closures).  The next publish ships the updated weights.
            adversary = self.spec.adversary_parameters()
            for parameter in adversary:
                parameter.grad = None
            self._sharded_round("adversary", batch, payload, state, adversary)
            self.spec.adversary_step()
        # Round 2 (or the only round) — the trainer's own loss.
        return self._sharded_round("loss", batch, payload, state,
                                   self._trainer.parameters)


class ParallelTrainer(Trainer):
    """A :class:`~repro.training.Trainer` whose gradients come from a sharded pool.

    Construction mirrors ``Trainer`` but takes a :class:`ParallelLossSpec`
    instead of a loss closure.  ``num_workers=1`` executes the spec
    in-process (bit-identical to the serial trainer, no subprocess);
    ``num_workers>=2`` spawns that many gradient workers for the duration of
    each :meth:`fit` call.  Checkpoints, callbacks and ``validate_fn`` are
    inherited unchanged — the worker count is an execution detail that never
    enters the snapshot, so runs may be resumed on machines with different
    core counts.
    """

    def __init__(self, parameters: Sequence, optimizer,
                 loss_spec: ParallelLossSpec, *, num_workers: int = 1,
                 grad_clip: Optional[float] = None,
                 callbacks: Sequence = (),
                 rng: Optional[np.random.Generator] = None,
                 validate_fn=None) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.loss_spec = loss_spec
        self.num_workers = int(num_workers)
        reducer = (SpecReducer(loss_spec) if num_workers == 1
                   else MultiprocessReducer(loss_spec, num_workers))
        super().__init__(parameters, optimizer, loss_fn=None,
                         grad_clip=grad_clip, callbacks=callbacks, rng=rng,
                         validate_fn=validate_fn, reducer=reducer)
