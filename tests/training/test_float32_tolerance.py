"""float32 compute-dtype tolerance tests.

The float32 policy is a raw-speed path, not a bit-identical one: single
precision rounds differently and its RNG samplers consume the bit stream
differently, so nothing here pins exact values.  The contract these tests
enforce instead:

* with the *same weights* (an f64 state dict loaded into an f32-built
  model — ``load_state_dict`` casts into the destination storage), clean
  logits agree to float32 rounding and clean accuracy matches;
* ``noisy_accuracy`` under ``SimConfig(dtype="float32")`` lands within a
  stated tolerance of the float64 evaluation;
* a GBO smoke run at float32 is deterministic per seed on the vectorized
  engine, trains to a mean loss close to the reference engine's (the two
  draw different but equally distributed mixture noise), and to a loss
  comparable to the float64 run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GBOConfig, GBOTrainer
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import CrossbarMLP
from repro.sim import SimConfig, Session, apply_config
from repro.tensor import Tensor, compute_dtype_scope, no_grad
from repro.tensor.random import RandomState
from repro.training.evaluate import evaluate_accuracy, noisy_accuracy
from repro.utils.seed import seed_everything

# Stated tolerances.  Accuracy is over 96 samples, so one flipped sample
# moves it by ~1.04 points; noise draws differ between the dtype streams,
# which dominates the noisy comparison.
CLEAN_LOGIT_RTOL = 1e-4
CLEAN_ACCURACY_TOL = 3.0  # percentage points
NOISY_ACCURACY_TOL = 15.0  # percentage points
GBO_MEAN_LOSS_RTOL = 0.25
# Same dtype, different engines: the folded and per-candidate mixture draws
# are different samples of one distribution (measured gap 3.4%).
CROSS_ENGINE_MEAN_LOSS_RTOL = 0.1


def _loader():
    rng = RandomState(7)
    inputs = np.tanh(rng.normal(size=(96, 24)))
    labels = rng.randint(0, 4, size=96)
    return DataLoader(TensorDataset(inputs, labels), batch_size=16, shuffle=False)


def _model_pair():
    """The same weights in float64 and float32 storage.

    Building under the float32 scope draws a *different* init stream, so the
    f32 model is built first and then overwritten with the f64 model's state
    dict — ``np.copyto`` keeps the destination dtype, casting the identical
    weight values to single precision (the sign weights are ±1, exactly
    representable).
    """
    model64 = CrossbarMLP(in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5))
    with compute_dtype_scope("float32"):
        model32 = CrossbarMLP(
            in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5)
        )
    model32.load_state_dict(model64.state_dict())
    for name, param in model32.named_parameters():
        assert param.data.dtype == np.float32, name
    return model64, model32


class TestCleanForward:
    def test_logits_agree_to_float32_rounding(self):
        model64, model32 = _model_pair()
        batch = RandomState(3).uniform(-1.0, 1.0, size=(8, 24))
        with no_grad():
            logits64 = model64(Tensor(batch)).data
            with compute_dtype_scope("float32"):
                logits32 = model32(Tensor(batch)).data
        assert logits32.dtype == np.float32
        np.testing.assert_allclose(logits32, logits64, rtol=CLEAN_LOGIT_RTOL, atol=1e-5)

    def test_clean_accuracy_matches(self):
        model64, model32 = _model_pair()
        loader = _loader()
        acc64 = evaluate_accuracy(model64, loader)
        with compute_dtype_scope("float32"):
            acc32 = evaluate_accuracy(model32, loader)
        assert abs(acc32 - acc64) <= CLEAN_ACCURACY_TOL


class TestNoisyAccuracy:
    @pytest.mark.parametrize("engine_name", ["vectorized", "reference"])
    def test_noisy_accuracy_within_tolerance(self, engine_name):
        model64, model32 = _model_pair()
        loader = _loader()
        base = dict(
            engine=engine_name, mode="noisy", pulses=8, noise_sigma=2.0, seed=99
        )
        acc64 = noisy_accuracy(model64, loader, num_repeats=3, sim=SimConfig(**base))
        acc32 = noisy_accuracy(
            model32, loader, num_repeats=3, sim=SimConfig(dtype="float32", **base)
        )
        assert abs(acc32 - acc64) <= NOISY_ACCURACY_TOL

    def test_session_restores_dtype_policy_after_eval(self):
        from repro.tensor import compute_dtype_name

        model64, model32 = _model_pair()
        noisy_accuracy(
            model32,
            _loader(),
            sim=SimConfig(mode="noisy", pulses=8, noise_sigma=1.0, dtype="float32"),
        )
        assert compute_dtype_name() == "float64"


def _gbo_smoke(engine_name):
    """One short GBO run entirely under the float32 policy."""
    with compute_dtype_scope("float32"):
        seed_everything(4321)
        rng = RandomState(7)
        inputs = np.tanh(rng.normal(size=(64, 24)))
        labels = rng.randint(0, 4, size=64)
        loader = DataLoader(
            TensorDataset(inputs, labels), batch_size=16, shuffle=True, rng=RandomState(11)
        )
        model = CrossbarMLP(
            in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5)
        )
        apply_config(model, SimConfig(noise_sigma=3.0))
        for index, layer in enumerate(model.encoded_layers()):
            layer.noise_rng = RandomState(1000 + index)
        trainer = GBOTrainer(
            model,
            GBOConfig(space=PulseScalingSpace(), epochs=2, learning_rate=0.1, gamma=2e-3),
            sim=SimConfig(engine=engine_name),
        )
        return trainer.train(loader)


class TestGBOSmoke:
    def test_vectorized_float32_is_deterministic_and_tracks_reference(self):
        vec = _gbo_smoke("vectorized")
        again = _gbo_smoke("vectorized")
        assert vec.schedule.as_list() == again.schedule.as_list()
        vec_losses = [record["loss"] for record in vec.history]
        assert vec_losses == [record["loss"] for record in again.history]
        ref_losses = [record["loss"] for record in _gbo_smoke("reference").history]
        assert np.mean(vec_losses) == pytest.approx(
            np.mean(ref_losses), rel=CROSS_ENGINE_MEAN_LOSS_RTOL
        )

    def test_float32_trains_comparably_to_float64(self):
        """Different noise streams, same optimisation behaviour.

        float32 draws a different (single-precision) sample stream, so the
        loss trajectory and even the selected schedule legitimately differ
        from float64 — only the coarse behaviour is comparable.  The mean
        training loss over the run is the stable statistic.
        """

        def _f64_run():
            seed_everything(4321)
            rng = RandomState(7)
            inputs = np.tanh(rng.normal(size=(64, 24)))
            labels = rng.randint(0, 4, size=64)
            loader = DataLoader(
                TensorDataset(inputs, labels), batch_size=16, shuffle=True, rng=RandomState(11)
            )
            model = CrossbarMLP(
                in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5)
            )
            apply_config(model, SimConfig(noise_sigma=3.0))
            for index, layer in enumerate(model.encoded_layers()):
                layer.noise_rng = RandomState(1000 + index)
            trainer = GBOTrainer(
                model,
                GBOConfig(space=PulseScalingSpace(), epochs=2, learning_rate=0.1, gamma=2e-3),
                sim=SimConfig(engine="vectorized"),
            )
            return trainer.train(loader)

        run32 = _gbo_smoke("vectorized")
        run64 = _f64_run()
        mean32 = float(np.mean([record["loss"] for record in run32.history]))
        mean64 = float(np.mean([record["loss"] for record in run64.history]))
        assert mean32 == pytest.approx(mean64, rel=GBO_MEAN_LOSS_RTOL)
