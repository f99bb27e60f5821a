"""The GBO training pipeline's contract (:mod:`repro.core.gbo`).

``GBOTrainer.train`` runs each step's logits-independent work — the batch,
the stem, the first encoded layer's ideal read and every noise draw — on a
helper thread, one step ahead of the optimisation.  That must change
nothing a step-by-step run produces:

* the goldens below were recorded with the step-by-step trainer, before the
  pipeline existed: logits and loss history (by sha256 digest), the
  schedule, and the next two draws of every layer's noise stream and of the
  loader's shuffle stream after training — so a stream drawn one step too
  far, or in another order, shows;
* they cover a last batch shorter than the others, and a layer at
  sigma == 0, which must draw nothing;
* an error in either thread reaches the caller, and no thread outlives
  ``train()``.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.core import GBOConfig, GBOTrainer
from repro.data import DataLoader, TensorDataset
from repro.models import VGG9, CrossbarMLP, VGGConfig
from repro.sim import SimConfig, apply_config
from repro.tensor.random import RandomState
from repro.utils.seed import seed_everything

SEED = 5113

#: Per engine and case: steps, schedule, sha256 of the final logits and of
#: the (loss, cross_entropy, expected_latency) history as float64 bytes, the
#: next two draws of each layer's noise stream, and the loader's next
#: ``permutation(5)``.
GOLDEN = {
    "vectorized": {
        "smoke": (
            6, [8, 10, 8],
            "b3b7074b33d522a479e77faa862887fefde820bcc068bc2fb11a8856f7cf8599",
            "fc5e9a70bfa19888d7939e73b9f38b4b2d153e23ff86df50c6e1305e1d993647",
            [[1.2636910185417816, 0.32638964496315986],
             [0.3738635567300692, -0.10391919051569244],
             [0.7596662904052911, -0.4456407018528201]],
            [1, 4, 2, 0, 3],
        ),
        "partial": (
            6, [8, 12, 8],
            "25123d9d81b430469e2ad50023a5f55a9ccb2b3625024ce678080d99fd924e1b",
            "efa4ba0c4f7fce4dda8f189891157b006c81afe4ef7417929a749d1e992097fb",
            [[1.4270738367185318, -0.3951532358937295],
             [-0.10546740454800525, 0.5450774765556895],
             [-0.9305792303240631, -0.919218290413589]],
            [1, 0, 4, 3, 2],
        ),
        "zero_sigma": (
            6, [8, 4, 8],
            "1b31dddcb85d0a19b9219197a912101095d0b21989a9bc23d1c2a47ab9edf3d7",
            "fed993fc85d534ff25b9a66dc2892de9d09048929b31602597f24be7985617f2",
            [[1.2636910185417816, 0.32638964496315986],
             [1.1096841526058743, -0.4982912217080112],
             [0.7596662904052911, -0.4456407018528201]],
            [1, 4, 2, 0, 3],
        ),
        "vgg_partial": (
            6, [4, 4, 8, 10, 8, 8, 8],
            "bb8d7e756f7c94f7c9e54e8f5e9d2afe4b4839a3f49ca2f5a05f2f5d911747f5",
            "6632b592921aa8666ee40ddc8c997e86bc6b63dd998414e0afa15ef5907f62db",
            [[1.632032462170683, 1.642286231697187],
             [0.40452361460407116, -0.8992928552846282],
             [-0.3349126765008794, 1.079319547192813],
             [-0.6003345492480627, -0.9054054207636913],
             [0.5213783170785519, -0.31829617057642584],
             [-0.20947653999459123, -2.102769196346544],
             [1.389020739477878, 1.1930576469292336]],
            [0, 4, 3, 1, 2],
        ),
    },
    "reference": {
        "smoke": (
            6, [6, 4, 4],
            "c7b848f703de20ecd6e62ce7f7fcf7163ab48d95e3d4806ac739dab4966e163a",
            "ed6d62f8e286f1d413a02b23abc47cbfa86f2e5cc499ab26599a246f2d0154d1",
            [[0.41672867893808335, 1.2198745670011104],
             [2.070643103557779, -1.2729924705738496],
             [-2.3396241836467326, 0.5856107739508313]],
            [1, 4, 2, 0, 3],
        ),
        "partial": (
            6, [6, 4, 4],
            "ae338f4d6ecda3372754e52c792721b8ef655ae10e76d89423bd42adfe6f6d98",
            "efce9f9c34681459a7b0cb7dddfd41a1cbaca8109ffa867d70816c6a37126775",
            [[0.5125528899350379, -1.5794111001925744],
             [-1.5777018728667114, -1.5973876488710992],
             [3.626552407430027, 0.6170237569065479]],
            [1, 0, 4, 3, 2],
        ),
        "zero_sigma": (
            6, [4, 4, 4],
            "7bfc67e63868c6434382dc64ca068d4239739c042897368e537f934813793abb",
            "19ae0d0c1b9c893853aa8062773f8a835c21ad375afa25dd7bb5bed700be45bb",
            [[0.41672867893808335, 1.2198745670011104],
             [1.1096841526058743, -0.4982912217080112],
             [-2.3396241836467326, 0.5856107739508313]],
            [1, 4, 2, 0, 3],
        ),
        "vgg_partial": (
            6, [4, 14, 14, 14, 12, 6, 16],
            "bb0dd65ac55f54107950d9bd4cc6837cba37354af6918cfc83f4ae2dcb948bea",
            "7a986973878253f2b0f06bd6c0bd55792358b6524fc1ef48e55414613efcf977",
            [[0.026551821539452833, 0.9586890905209977],
             [-1.0499350169687063, 1.2561955422924076],
             [-0.006120492761449663, 0.040682139856102834],
             [1.353527026325446, 0.8304588531392071],
             [-0.4309229378721216, 1.341004467564114],
             [-2.712313704520224, -0.5425139175341924],
             [-1.4052060190765987, 0.917014880195711]],
            [0, 4, 3, 1, 2],
        ),
    },
}

#: ``_setup`` arguments of each golden case.
CASES = {
    "smoke": {},
    "partial": {"num_samples": 70},  # batches of 32, 32 and 6
    "zero_sigma": {"zero_layer": 1},
    "vgg_partial": {"num_samples": 40, "batch_size": 16, "vgg": True},  # 16, 16, 8
}


def _setup(engine, num_samples=96, batch_size=32, zero_layer=None, vgg=False):
    """A seeded model, loader and trainer; every stream is pinned."""
    seed_everything(SEED)
    rng = RandomState(3)
    if vgg:
        inputs = np.tanh(rng.normal(scale=1.5, size=(num_samples, 3, 16, 16)))
        labels = rng.randint(0, 4, size=num_samples)
        model = VGG9(
            VGGConfig(num_classes=4, image_size=16, width_multiplier=1 / 16), rng=RandomState(19)
        )
    else:
        centroids = rng.normal(scale=2.0, size=(4, 20))
        labels = rng.randint(0, 4, size=num_samples)
        inputs = np.tanh(centroids[labels] + rng.normal(scale=0.3, size=(num_samples, 20)))
        model = CrossbarMLP(
            in_features=20, hidden_sizes=(24, 16, 12), num_classes=4, rng=RandomState(5)
        )
    loader = DataLoader(
        TensorDataset(inputs, labels), batch_size=batch_size, shuffle=True, rng=RandomState(11)
    )
    apply_config(model, SimConfig(noise_sigma=2.5))
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(SEED + index)
    if zero_layer is not None:
        model.encoded_layers()[zero_layer]._apply_noise(0.0)
    trainer = GBOTrainer(
        model,
        GBOConfig(epochs=2, learning_rate=0.1, gamma=2e-3),
        sim=SimConfig(engine=engine),
    )
    return model, loader, trainer


def _digest(arrays) -> str:
    return hashlib.sha256(
        b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in arrays)
    ).hexdigest()


def _helpers_alive() -> bool:
    return any(thread.name == "gbo-prepare" for thread in threading.enumerate())


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_pipelined_run_matches_step_by_step_golden(engine, case):
    steps, schedule, logits_digest, history_digest, next_draws, loader_next = GOLDEN[engine][case]
    model, loader, trainer = _setup(engine, **CASES[case])
    result = trainer.train(loader)
    history = [[h["loss"], h["cross_entropy"], h["expected_latency"]] for h in result.history]
    assert len(history) == steps
    assert result.schedule.as_list() == schedule
    assert _digest(result.logits) == logits_digest
    assert _digest(history) == history_digest
    layers = model.encoded_layers()
    assert [layer.noise_rng.normal(size=2).tolist() for layer in layers] == next_draws
    assert loader._rng.permutation(5).tolist() == loader_next


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_zero_sigma_layer_draws_nothing(engine):
    model, loader, trainer = _setup(engine, zero_layer=1)
    trainer.train(loader)
    untouched = RandomState(SEED + 1).normal(size=4)
    np.testing.assert_array_equal(model.encoded_layers()[1].noise_rng.normal(size=4), untouched)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_nan_input_raises_value_error_and_joins_the_helper(engine):
    model, loader, trainer = _setup(engine)
    loader.dataset.inputs[40, 3] = np.nan
    threads = threading.active_count()
    with pytest.raises(ValueError, match="NaN"):
        trainer.train(loader)
    assert threading.active_count() == threads
    assert not _helpers_alive()


def _patch_loss(monkeypatch, hook):
    """Call ``hook(step)`` at each training step's loss, before computing it."""
    from repro.tensor import functional

    cross_entropy = functional.cross_entropy
    steps = []

    def hooked(outputs, targets):
        steps.append(1)
        hook(len(steps))
        return cross_entropy(outputs, targets)

    monkeypatch.setattr(functional, "cross_entropy", hooked)


def test_error_in_the_training_step_stops_the_helper(monkeypatch):
    model, loader, trainer = _setup("vectorized")

    def fail_at_step_two(step):
        if step == 2:
            raise RuntimeError("step failed")

    _patch_loss(monkeypatch, fail_at_step_two)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="step failed"):
        trainer.train(loader)
    assert threading.active_count() == threads
    assert not _helpers_alive()
    # The layers got their own streams back, and no memo stays attached.
    for index, layer in enumerate(model.encoded_layers()):
        assert isinstance(layer.noise_rng, RandomState)
        assert layer._read_memo is None


def test_helper_runs_at_most_one_step_ahead_and_never_past_the_last(monkeypatch):
    model, loader, trainer = _setup("vectorized")
    pulled = []
    iterate = loader.__iter__

    class CountingLoader:
        def __iter__(self):
            for batch in iterate():
                pulled.append(1)
                yield batch

    leads = []
    _patch_loss(monkeypatch, lambda step: leads.append(len(pulled) - step))
    threads = threading.active_count()
    result = trainer.train(CountingLoader())
    assert len(result.history) == len(pulled) == 2 * len(loader)
    assert len(leads) == len(result.history)
    assert all(lead in (0, 1) for lead in leads), leads
    assert threading.active_count() == threads


def test_empty_loader_trains_no_step():
    model, _, trainer = _setup("vectorized")
    result = trainer.train([])
    assert result.history == []
    assert not _helpers_alive()


def test_concurrent_trainings_with_fast_thread_switching_match_goldens():
    """Two trainings at once (four threads on the shared default context),
    switching threads every microsecond: each still matches its golden, so
    no helper's ``no_grad()`` or draws reach another thread's step."""
    import sys

    cases = [("vectorized", "smoke"), ("reference", "partial")]
    runs = [_setup(engine, **CASES[case]) for engine, case in cases]
    results, errors = [None] * len(runs), []

    def train(index):
        try:
            _, loader, trainer = runs[index]
            results[index] = trainer.train(loader)
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=train, args=(i,)) for i in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for (engine, case), result in zip(cases, results):
        _, _, logits_digest, history_digest, _, _ = GOLDEN[engine][case]
        history = [[h["loss"], h["cross_entropy"], h["expected_latency"]] for h in result.history]
        assert _digest(result.logits) == logits_digest, (engine, case)
        assert _digest(history) == history_digest, (engine, case)


def test_helper_prepares_in_the_callers_execution_context():
    """Training inside an activated float32 context equals training on the
    process default switched to float32: the helper resolves the caller's
    context (its dtype policy), not the process default."""
    from repro.context import ExecutionContext, use_context
    from repro.tensor import compute_dtype_scope

    def run():
        _, loader, trainer = _setup("vectorized")
        result = trainer.train(loader)
        return _digest(result.logits), [h["loss"] for h in result.history]

    with use_context(ExecutionContext(dtype="float32")):
        activated = run()
    with compute_dtype_scope("float32"):
        default = run()
    assert activated == default
