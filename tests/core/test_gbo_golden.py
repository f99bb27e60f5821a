"""Golden-value regression test for the GBO stage.

Pins the schedule selected by a fully seeded GBO run (and its
``average_pulses`` latency proxy) so engine refactors cannot silently shift
the paper's Table I selections.  Every stochastic source is pinned: the
global seed, the data generator, the loader shuffle, the weight init and the
per-layer noise generators.  Each engine has its own golden outcome: the
vectorized engine folds the Eq. 5 mixture into one Gaussian draw per layer,
which is equal in distribution to the reference's per-candidate draws but
consumes a different sample stream, so the two runs select differently.

A second run pins a small VGG9 bit for bit (by sha256 digest of its
logits and loss history), so rewrites of the autograd, pooling and noise
kernels under GBO must be exact, not merely close.

If an *intentional* semantic change to GBO moves these values, re-derive the
golden constants by running the setup below and update them in the same
change with a note in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from repro.core import GBOConfig, GBOTrainer
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import VGG9, CrossbarMLP, VGGConfig
from repro.sim import SimConfig, apply_config
from repro.tensor.random import RandomState
from repro.utils.seed import seed_everything

SEED = 8861

#: Golden outcome of the seeded run below on the reference engine.
GOLDEN_SCHEDULE = [8, 6]
GOLDEN_AVERAGE_PULSES = 7.0
GOLDEN_FIRST_LAYER_LOGITS = [
    -0.425645, 0.291824, 0.693845, -0.204095, 0.114838, 0.229033, -0.163513,
]

#: Golden outcome of the same run on the vectorized engine (folded draw).
VECTORIZED_GOLDEN_SCHEDULE = [8, 10]
VECTORIZED_GOLDEN_AVERAGE_PULSES = 9.0
VECTORIZED_GOLDEN_FIRST_LAYER_LOGITS = [
    0.665144, 0.719763, 0.944828, -0.585983, -0.677615, -0.699114, -0.712235,
]

GOLDEN = {
    "reference": (GOLDEN_SCHEDULE, GOLDEN_AVERAGE_PULSES, GOLDEN_FIRST_LAYER_LOGITS),
    "vectorized": (
        VECTORIZED_GOLDEN_SCHEDULE,
        VECTORIZED_GOLDEN_AVERAGE_PULSES,
        VECTORIZED_GOLDEN_FIRST_LAYER_LOGITS,
    ),
}


def _run_golden_gbo(engine_name):
    seed_everything(SEED)
    rng = RandomState(7)
    num_samples, features, classes = 128, 24, 4
    centroids = rng.normal(scale=2.0, size=(classes, features))
    labels = rng.randint(0, classes, size=num_samples)
    inputs = np.tanh(centroids[labels] + rng.normal(scale=0.3, size=(num_samples, features)))
    loader = DataLoader(
        TensorDataset(inputs, labels), batch_size=32, shuffle=True, rng=RandomState(11)
    )
    model = CrossbarMLP(
        in_features=24, hidden_sizes=(32, 32), num_classes=classes, rng=RandomState(5)
    )
    apply_config(model, SimConfig(noise_sigma=3.0))
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(SEED + index)
    trainer = GBOTrainer(
        model,
        GBOConfig(space=PulseScalingSpace(), epochs=3, learning_rate=0.1, gamma=2e-3),
        sim=SimConfig(engine=engine_name),
    )
    return trainer.train(loader)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_gbo_golden_schedule_and_average_pulses(engine):
    schedule, average_pulses, first_layer_logits = GOLDEN[engine]
    result = _run_golden_gbo(engine)
    assert result.schedule.as_list() == schedule
    assert result.average_pulses == pytest.approx(average_pulses)
    np.testing.assert_allclose(result.logits[0], first_layer_logits, rtol=1e-4, atol=1e-5)


VGG_SEED = 4409

#: Golden outcome of the seeded VGG9 run below, per engine: schedule,
#: first-layer logits, and sha256 digests of every layer's final logits and
#: of the (loss, cross_entropy, expected_latency) history, as float64 bytes.
#: The digests pin the run bit for bit (they held at 1 and 2 BLAS threads
#: with numpy 2.4 on OpenBLAS); the schedule and rounded logits say what
#: moved when a digest does.
VGG_GOLDEN = {
    "vectorized": (
        [10, 12, 10, 8, 10, 10, 8],
        [-0.059298, -0.060814, -0.044466, 0.075547, 0.062316, 0.056682, 0.053477],
        "325d0abe034c5c35799371f2f523a1c5d6f16d2b84ce585cc501dea3695c877b",
        "026008e3899339ea5c9b2b0b47258d2d649aeff58048d93221e655827e88ae8a",
    ),
    "reference": (
        [8, 14, 6, 6, 6, 6, 14],
        [0.031218, -0.144171, 0.300874, 0.084773, -0.14733, -0.322014, -0.084867],
        "a0e036685dd0598b0645498f532970e2c820f68c7ef7763a995ae3f0162056c3",
        "9edf6b789ceec57e231a1cf84e4743bce8727d4ca4146db29936e09922db9adb",
    ),
}


def _run_golden_vgg_gbo(engine_name):
    """GBO on a 1/16-width VGG9: conv, frozen eval BN, tanh and max-pool.

    The BN affine parameters and running statistics are drawn wide enough
    that tanh saturates to exact +-1, so about one pool window in six holds
    a tie and the pool backward's tie split is on the pinned path.
    """
    seed_everything(VGG_SEED)
    rng = RandomState(13)
    num_samples = 48
    images = np.tanh(rng.normal(scale=1.5, size=(num_samples, 3, 16, 16)))
    labels = rng.randint(0, 4, size=num_samples)
    loader = DataLoader(
        TensorDataset(images, labels), batch_size=16, shuffle=True, rng=RandomState(17)
    )
    model = VGG9(
        VGGConfig(num_classes=4, image_size=16, width_multiplier=1 / 16), rng=RandomState(19)
    )
    stats = RandomState(23)
    for module in model.modules():
        if hasattr(module, "running_var"):
            features = module.num_features
            module.weight.data[:] = stats.uniform(1.0, 4.0, size=features)
            module.bias.data[:] = stats.normal(scale=0.5, size=features)
            module.running_mean[:] = stats.normal(scale=1.0, size=features)
            module.running_var[:] = stats.uniform(0.5, 2.0, size=features)
    apply_config(model, SimConfig(noise_sigma=3.0))
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(VGG_SEED + index)
    trainer = GBOTrainer(
        model,
        GBOConfig(space=PulseScalingSpace(), epochs=2, learning_rate=0.1, gamma=2e-3),
        sim=SimConfig(engine=engine_name),
    )
    return trainer.train(loader)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_vgg_gbo_golden_run_is_bit_identical(engine):
    schedule, first_layer_logits, logits_digest, history_digest = VGG_GOLDEN[engine]
    result = _run_golden_vgg_gbo(engine)
    history = np.array(
        [[h["loss"], h["cross_entropy"], h["expected_latency"]] for h in result.history]
    )
    assert result.schedule.as_list() == schedule
    np.testing.assert_allclose(result.logits[0], first_layer_logits, rtol=1e-4, atol=1e-5)
    assert history.shape == (6, 3)
    assert hashlib.sha256(b"".join(l.tobytes() for l in result.logits)).hexdigest() == (
        logits_digest
    )
    assert hashlib.sha256(history.tobytes()).hexdigest() == history_digest
