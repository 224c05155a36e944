"""Every parameter learns: one optimizer step moves each trainable parameter.

For every trainable detector, one optimizer step at a fixed seed must leave
a non-zero gradient on every parameter it trains — the baselines'
``_trainer_parameters()`` and, for the GANs, ``_adversary_parameters()``;
ImDiffusion's denoiser parameters — and must move each of them.  A
parameter that is read as plain data instead of through the autograd graph
(GDN's sensor embedding once was) fails here.  A detector whose schedule
holds a loss term at zero weight in its first epoch is checked after one
step in each of its first epochs (``LATE_LEARNERS``); a parameter that
cannot learn by design is listed in ``NOT_TRAINED`` with its reason.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.baselines import BASELINE_REGISTRY

#: ``{detector name: {parameter index: reason}}`` — parameters exempt from
#: the check.  Empty: every parameter of every trainable detector learns.
NOT_TRAINED = {}

#: ``{detector name: (epochs, reason)}`` — detectors whose check runs after
#: one single-batch step per epoch for that many epochs, instead of one step.
LATE_LEARNERS = {
    "TranAD": (2, "its schedule weights the phase-2 loss by 1 - 1/(epoch + 1), "
                  "which is 0 in the first epoch (as in the reference "
                  "implementation), so the phase-2 decoder and the focus "
                  "projection's weight first get a gradient in epoch 2"),
}

#: Tiny configurations of the nine trainable baselines.
BASELINES = {
    "BeatGAN": dict(window_size=16, latent_dim=4, hidden_dim=8),
    "GDN": dict(history=8, embedding_dim=8, top_k=2, hidden_dim=8),
    "InterFusion": dict(window_size=16, metric_latent_dim=4,
                        temporal_latent_dim=4, hidden_dim=8),
    "LSTM-AD": dict(history=8, hidden_size=8),
    "MAD-GAN": dict(window_size=16, latent_dim=4, hidden_size=8),
    "MSCRED": dict(window_size=16, scales=(4, 8, 16)),
    "MTAD-GAT": dict(window_size=16, hidden_size=8),
    "OmniAnomaly": dict(window_size=16, hidden_size=8, latent_dim=4),
    "TranAD": dict(window_size=16, hidden_size=8, num_heads=2),
}
BATCH = 8


def _series(length=140, num_channels=4, seed=0):
    rng = np.random.default_rng(seed)
    base = np.sin(np.arange(length) / 9.0)[:, None] * np.ones((1, num_channels))
    return base + 0.1 * rng.standard_normal((length, num_channels))


def _baseline_step(name):
    """Fit a baseline on one batch; return its parameters and their old values."""
    detector = BASELINE_REGISTRY[name](epochs=1, batch_size=BATCH, seed=0,
                                       **BASELINES[name])
    run_trainer = detector._run_trainer
    captured = {}

    def one_step(arrays, *, epochs, batch_size, learning_rate):
        parameters = list(detector._trainer_parameters())
        if type(detector)._adversary_loss_method is not None:
            parameters += list(detector._adversary_parameters())
        captured["parameters"] = parameters
        captured["before"] = [parameter.data.copy() for parameter in parameters]
        return run_trainer(tuple(array[:batch_size] for array in arrays),
                           epochs=LATE_LEARNERS.get(name, (1, ""))[0],
                           batch_size=batch_size, learning_rate=learning_rate)

    detector._run_trainer = one_step
    detector.fit(_series())
    return captured["parameters"], captured["before"]


def _imdiffusion_step():
    detector = ImDiffusionDetector(ImDiffusionConfig(
        window_size=16, num_steps=4, epochs=1, hidden_dim=8, num_blocks=1,
        num_heads=2, batch_size=BATCH, num_masked_windows=2,
        num_unmasked_windows=2, max_train_windows=16, train_stride=8, seed=0))
    train = detector._train
    captured = {}

    def one_step(windows, val_arrays, rng, optimizer, callbacks, *,
                 num_workers, epochs, resume_from=None):
        parameters = detector._imputer.model.parameters()
        captured["parameters"] = parameters
        captured["before"] = [parameter.data.copy() for parameter in parameters]
        return train(windows[:BATCH], None, rng, optimizer, callbacks,
                     num_workers=num_workers, epochs=1)

    detector._train = one_step
    detector.fit(_series())
    return captured["parameters"], captured["before"]


@pytest.mark.parametrize("name", sorted(BASELINES) + ["ImDiffusion"])
def test_one_step_moves_every_parameter(name):
    if name == "ImDiffusion":
        parameters, before = _imdiffusion_step()
    else:
        parameters, before = _baseline_step(name)
    exempt = NOT_TRAINED.get(name, {})
    stuck = [index for index, (parameter, old) in enumerate(zip(parameters, before))
             if index not in exempt
             and (parameter.grad is None or not np.any(parameter.grad)
                  or np.array_equal(parameter.data, old))]
    assert not stuck, (
        f"{name}: parameters {stuck} (shapes "
        f"{[parameters[i].data.shape for i in stuck]}) got no gradient or "
        "did not move")


def test_every_trainable_baseline_is_covered():
    trainable = {name for name, cls in BASELINE_REGISTRY.items()
                 if cls.supports_parallel}
    assert trainable == set(BASELINES)
