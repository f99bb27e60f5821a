"""Bit-exact pins of the encoded conv layers' read, in every training stage.

The smoke-profile goldens run an MLP, so they see only the linear read.
These runs pin a 1/16-width VGG9 (padded 3x3 convolutions, frozen or
training BatchNorm, tanh, max-pool) by the SHA-256 digest of what each
stage produces, recorded before the layers' read became one fused op:

* GBO, two steps: frozen weights, gradients reach only the logits;
* GBO at the float32 compute dtype;
* pre-training, two SGD steps: weight gradients through the binary read;
* NIA at 8 pulses (a read exact in single precision) and at 12 pulses
  (a PLA table that is not), where both weight and input gradients flow.

A digest that moves means the read, or its backward, changed a bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import GBOConfig, GBOTrainer
from repro.core.nia import NIAConfig, NIATrainer
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import VGG9, VGGConfig
from repro.sim import SimConfig, apply_config
from repro.tensor import Tensor, no_grad
from repro.tensor.dtype import compute_dtype_scope
from repro.tensor.random import RandomState
from repro.training.pretrain import PretrainConfig, pretrain_model
from repro.utils.seed import seed_everything

SEED = 5113

#: Stage -> SHA-256 of its outcome (see the module docstring).
PINS = {
    "gbo": "02dfc87f260a5422f7076fd05cc54a785bfc5879e3e279feb04d083f0aaffd0a",
    "gbo_float32": "f16ffd8358e4d39f00368dd9484d7ccbf833ff7052aefc3c8a580cc4acb7d781",
    "pretrain": "9b4de90b30047048602c639249a1ac326c20b18a9a421b8efbbe4ae25dd0f2c4",
    "nia8": "31cbde9be1d2522f3f5719790b2f5d605ae115ff198a29e565693434bf3be833",
    "nia12": "1d9520741dc2dd832d85edd9de36adb735fc73c46088e11c2bda1f13115f7fe8",
}


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _setup(samples: int = 16, batch: int = 8):
    seed_everything(SEED)
    rng = RandomState(29)
    images = np.tanh(rng.normal(scale=1.5, size=(samples, 3, 16, 16)))
    labels = rng.randint(0, 4, size=samples)
    loader = DataLoader(
        TensorDataset(images, labels), batch_size=batch, shuffle=True, rng=RandomState(31)
    )
    model = VGG9(
        VGGConfig(num_classes=4, image_size=16, width_multiplier=1 / 16), rng=RandomState(37)
    )
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(SEED + index)
    return model, loader, images


def _gbo_digest() -> str:
    model, loader, _ = _setup()
    apply_config(model, SimConfig(noise_sigma=3.0))
    result = GBOTrainer(
        model,
        GBOConfig(space=PulseScalingSpace(), epochs=1, learning_rate=0.1, gamma=2e-3),
        sim=SimConfig(engine="vectorized"),
    ).train(loader)
    history = np.array(
        [[h["loss"], h["cross_entropy"], h["expected_latency"]] for h in result.history]
    )
    assert history.shape == (2, 3)
    return _digest(*result.logits, history)


def _weights_and_logits(model, images) -> list:
    with no_grad():
        logits = model.eval()(Tensor(images[:4])).data
    return [p.data for p in model.parameters()] + [logits]


def _run(stage: str) -> str:
    if stage == "gbo":
        return _gbo_digest()
    if stage == "gbo_float32":
        with compute_dtype_scope("float32"):
            return _gbo_digest()
    model, loader, images = _setup()
    if stage == "pretrain":
        history = pretrain_model(model, loader, config=PretrainConfig(epochs=1, learning_rate=0.05))
        losses = np.array([h["train_loss"] for h in history])
    else:
        pulses = int(stage[3:])
        history = NIATrainer(
            model, NIAConfig(sigma=2.0, epochs=1, learning_rate=0.01, pulses=pulses)
        ).train(loader)
        losses = np.array([h["loss"] for h in history])
    return _digest(losses, *_weights_and_logits(model, images))


@pytest.mark.parametrize("stage", sorted(PINS))
def test_conv_stage_is_bit_identical(stage):
    assert _run(stage) == PINS[stage]
