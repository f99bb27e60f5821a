"""The stacked noisy evaluation pipeline's contract (:func:`evaluate_multi`).

``evaluate_multi`` draws every scenario's read noise on one helper thread, a
few draws ahead of the forward.  That must change nothing the step-by-step
``MultiSession.forward`` loop produces:

* per scenario, the logits of every batch, and the next two draws of every
  stream afterwards — so a stream drawn one batch too far, or in another
  order, shows;
* with a last batch shorter than the others, over two repeats, and with
  clean and sigma-0 scenarios beside noisy ones (their streams untouched);
* an error on either thread reaches the caller with the helper joined and
  the layers' own streams back; a forward that diverges from the recorded
  draws raises; no thread outlives the call.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.context import ExecutionContext, use_context
from repro.data import DataLoader, TensorDataset
from repro.models import VGG9, CrossbarMLP, VGGConfig
from repro.sim import MultiSession, SimConfig
from repro.tensor import Tensor, no_grad
from repro.tensor.random import RandomState
from repro.training import evaluate
from repro.training.evaluate import DRAWS_AHEAD, evaluate_multi
from repro.training.metrics import AverageMeter, accuracy_from_logits
from repro.utils.step_ahead import StepAheadThread

SEED = 4410

ENGINES = ["vectorized", "reference"]

NOISY = [
    SimConfig(mode="noisy", noise_sigma=2.0),
    SimConfig(mode="noisy", noise_sigma=1.0, pulses=4),
    SimConfig(mode="noisy", noise_sigma=3.0, pulses=12),
]

MIXED = [
    SimConfig(mode="noisy", noise_sigma=2.0),
    SimConfig(mode="clean"),
    SimConfig(mode="noisy", noise_sigma=0.0, pulses=4),
    SimConfig(mode="noisy", noise_sigma=0.5, sigma_relative_to_fan_in=True),
]

#: Per case: configs, samples (batches of 6), repeats and model.
CASES = {
    "noisy": (NOISY, 12, 1, "vgg9"),
    "short_last_batch": (NOISY, 15, 1, "vgg9"),  # 6, 6 and 3
    "two_repeats": (NOISY, 15, 2, "vgg9"),
    "mixed": (MIXED, 15, 2, "vgg9"),
    "mlp": (MIXED, 15, 2, "mlp"),
}


def _model(name):
    if name == "mlp":
        model = CrossbarMLP(
            in_features=256, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(SEED)
        )
    else:
        config = VGGConfig(num_classes=4, in_channels=1, image_size=16, width_multiplier=1 / 16)
        model = VGG9(config, rng=RandomState(SEED))
    return model.eval()


def _loader(num_samples, seed=SEED + 1):
    rng = RandomState(seed)
    inputs = np.clip(rng.normal(0.0, 0.5, size=(num_samples, 1, 16, 16)), -1.0, 1.0)
    targets = rng.randint(0, 4, size=num_samples)
    return DataLoader(TensorDataset(inputs, targets), batch_size=6, shuffle=False)


def _configs(configs, engine):
    return [config.with_changes(engine=engine) for config in configs]


def _streams(count, seed=SEED + 10):
    return [RandomState(seed + k) for k in range(count)]


def _next_draws(rngs):
    return [rng.normal(size=2).tolist() for rng in rngs]


def _step_by_step(model, loader, configs, num_repeats=1):
    """Logits per batch, accuracies and next draws of a plain forward loop."""
    rngs = _streams(len(configs))
    logits, meters = [], []
    with MultiSession(model, configs, rngs=rngs) as session, no_grad():
        for _ in range(num_repeats):
            meters.append([AverageMeter("accuracy") for _ in configs])
            for inputs, targets in loader:
                blocks = session.forward(Tensor(inputs))
                logits.append([block.data.copy() for block in blocks])
                for meter, block in zip(meters[-1], blocks):
                    meter.update(accuracy_from_logits(block, targets), weight=len(targets))
    accuracies = [[repeat[k].average for repeat in meters] for k in range(len(configs))]
    return logits, accuracies, _next_draws(rngs)


def _pipelined(monkeypatch, model, loader, configs, num_repeats=1):
    """The same three, from ``evaluate_multi``."""
    seen = []

    def recording(logits, targets, _accuracy=accuracy_from_logits):
        seen.append(logits.data.copy())
        return _accuracy(logits, targets)

    monkeypatch.setattr(evaluate, "accuracy_from_logits", recording)
    rngs = _streams(len(configs))
    accuracies = evaluate_multi(model, loader, configs, rngs=rngs, num_repeats=num_repeats)
    count = len(configs)
    logits = [seen[start : start + count] for start in range(0, len(seen), count)]
    return logits, accuracies, _next_draws(rngs)


def _assert_same(got, want):
    got_logits, got_accuracies, got_draws = got
    want_logits, want_accuracies, want_draws = want
    assert len(got_logits) == len(want_logits)
    for got_batch, want_batch in zip(got_logits, want_logits):
        for got_block, want_block in zip(got_batch, want_batch):
            np.testing.assert_array_equal(got_block, want_block)
    assert got_accuracies == want_accuracies
    assert got_draws == want_draws


def _helpers_alive():
    return [t.name for t in threading.enumerate() if isinstance(t, StepAheadThread)]


def _layer_state(model):
    return [(layer.noise_rng, layer._read_memo) for layer in model.encoded_layers()]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine", ENGINES)
def test_pipelined_matches_step_by_step(monkeypatch, engine, case):
    configs, num_samples, num_repeats, model_name = CASES[case]
    configs = _configs(configs, engine)
    model, loader = _model(model_name), _loader(num_samples)
    want = _step_by_step(model, loader, configs, num_repeats)
    threads = threading.active_count()
    got = _pipelined(monkeypatch, model, loader, configs, num_repeats)
    _assert_same(got, want)
    assert len(got[0]) == len(loader) * num_repeats
    assert threading.active_count() == threads


@pytest.mark.parametrize("engine", ENGINES)
def test_clean_and_zero_sigma_streams_stay_untouched(engine):
    configs = _configs(MIXED, engine)
    rngs = _streams(len(configs))
    evaluate_multi(_model("vgg9"), _loader(15), configs, rngs=rngs, num_repeats=2)
    fresh = _next_draws(_streams(len(configs)))
    draws = _next_draws(rngs)
    assert draws[1] == fresh[1]  # clean
    assert draws[2] == fresh[2]  # sigma 0
    assert draws[0] != fresh[0] and draws[3] != fresh[3]


@pytest.mark.parametrize("engine", ENGINES)
def test_nan_input_raises_with_the_helper_joined_and_streams_restored(engine):
    model, loader = _model("vgg9"), _loader(18)
    loader.dataset.inputs[14, 0, 3, 3] = np.nan  # the third batch
    before = _layer_state(model)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="NaN"):
        evaluate_multi(model, loader, _configs(NOISY, engine), rngs=_streams(len(NOISY)))
    assert threading.active_count() == threads
    assert not _helpers_alive()
    assert _layer_state(model) == before


def _failing_body(monkeypatch, model, fail_at, change=None):
    """Wrap ``forward_body``: its call ``fail_at`` raises, or first runs ``change(model)``."""
    body = model.forward_body
    calls = []

    def wrapped(x):
        calls.append(1)
        if len(calls) == fail_at:
            if change is None:
                raise RuntimeError("body failed")
            change(model)
        return body(x)

    monkeypatch.setattr(model, "forward_body", wrapped)


@pytest.mark.parametrize("engine", ENGINES)
def test_error_in_the_body_raises_with_the_helper_joined_and_streams_restored(
    monkeypatch, engine
):
    model, loader = _model("vgg9"), _loader(18)
    _failing_body(monkeypatch, model, fail_at=len(NOISY) + 2)  # second batch
    before = _layer_state(model)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="body failed"):
        evaluate_multi(model, loader, _configs(NOISY, engine), rngs=_streams(len(NOISY)))
    assert threading.active_count() == threads
    assert not _helpers_alive()
    assert _layer_state(model) == before


class _FailingStream(RandomState):
    """A stream whose ``normal`` raises from its ``fail_at``-th call on."""

    def __init__(self, seed, fail_at):
        super().__init__(seed)
        self.calls = 0
        self.fail_at = fail_at

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise RuntimeError("draw failed")
        return super().normal(loc, scale, size)


def test_error_on_the_helper_reaches_the_caller():
    model, loader = _model("vgg9"), _loader(18)
    rngs = _streams(len(NOISY))
    rngs[1] = _FailingStream(SEED, fail_at=12)  # 7 layers: a second-batch draw
    before = _layer_state(model)
    with pytest.raises(RuntimeError, match="draw failed"):
        evaluate_multi(model, loader, _configs(NOISY, "vectorized"), rngs=rngs)
    assert not _helpers_alive()
    assert _layer_state(model) == before


def test_a_forward_drawing_another_shape_raises(monkeypatch):
    model, loader = _model("vgg9"), _loader(18)

    def extra_draw(model):
        model.encoded_layers()[0].noise_rng.normal(0.0, 1.0, (6, 3))

    _failing_body(monkeypatch, model, len(NOISY) + 1, extra_draw)  # second batch's first
    with pytest.raises(RuntimeError, match="drew shape"):
        evaluate_multi(model, loader, _configs(NOISY, "vectorized"), rngs=_streams(3))
    assert not _helpers_alive()


def _go_clean(model):
    for layer in model.encoded_layers():
        layer._apply_mode("clean")


def test_a_forward_leaving_draws_unused_raises(monkeypatch):
    model, loader = _model("vgg9"), _loader(18)
    _failing_body(monkeypatch, model, 2 * len(NOISY), _go_clean)  # second batch's last
    with pytest.raises(RuntimeError, match="unused"):
        evaluate_multi(model, loader, _configs(NOISY, "vectorized"), rngs=_streams(3))
    assert not _helpers_alive()


def test_a_scenario_taking_another_scenarios_draw_raises(monkeypatch):
    # Scenario 0 draws nothing on the second batch, so scenario 1's first
    # draw would be scenario 0's: same shape, wrong stream.
    model, loader = _model("vgg9"), _loader(18)
    _failing_body(monkeypatch, model, len(NOISY) + 1, _go_clean)
    with pytest.raises(RuntimeError, match="scenario 1 drew noise"):
        evaluate_multi(model, loader, _configs(NOISY, "vectorized"), rngs=_streams(3))
    assert not _helpers_alive()


def test_helper_stays_within_its_window_and_never_passes_the_last_batch(monkeypatch):
    from repro.utils import step_ahead

    made, leads = [], []

    class CountingStream(RandomState):
        def normal(self, loc=0.0, scale=1.0, size=None):
            if isinstance(threading.current_thread(), StepAheadThread):
                made.append(1)
            return super().normal(loc, scale, size)

    replay_normal = step_ahead.DrawReplay.normal

    def taking(self, loc=0.0, scale=1.0, size=None):
        leads.append(len(made) - len(leads))
        return replay_normal(self, loc, scale, size)

    monkeypatch.setattr(step_ahead.DrawReplay, "normal", taking)
    model, loader = _model("vgg9"), _loader(15)
    configs = _configs(NOISY, "vectorized")
    rngs = [CountingStream(SEED + k) for k in range(len(configs))]
    evaluate_multi(model, loader, configs, rngs=rngs, num_repeats=2)
    per_batch = len(configs) * len(model.encoded_layers())
    assert len(made) == len(leads) == per_batch * (2 * len(loader) - 1)
    assert max(leads) <= DRAWS_AHEAD
    assert max(leads) > 1  # the helper did run ahead


def test_empty_loader_evaluates_nothing():
    configs = _configs(NOISY, "vectorized")
    rngs = _streams(len(configs))
    assert evaluate_multi(_model("vgg9"), [], configs, rngs=rngs, num_repeats=2) == [
        [0.0, 0.0] for _ in configs
    ]
    assert _next_draws(rngs) == _next_draws(_streams(len(configs)))
    assert not _helpers_alive()


def test_helper_draws_in_the_callers_execution_context(monkeypatch):
    """In an activated float32 context the helper draws float32 noise, as
    the step-by-step loop does there: it resolves the caller's context."""
    configs = _configs(NOISY, "vectorized")
    loader = _loader(15)
    with use_context(ExecutionContext(dtype="float32")):
        want = _step_by_step(_model("vgg9"), loader, configs)
        got = _pipelined(monkeypatch, _model("vgg9"), loader, configs)
    _assert_same(got, want)
    assert want[0][-1][0].dtype == np.float32


def test_concurrent_evaluations_with_fast_thread_switching_match_step_by_step():
    """Two evaluations at once (four threads), switching threads every
    microsecond: each still equals its step-by-step loop."""
    runs = [
        (_model("vgg9"), _loader(15), _configs(NOISY, "vectorized")),
        (_model("mlp"), _loader(15, seed=SEED + 2), _configs(MIXED, "reference")),
    ]
    wants = [_step_by_step(model, loader, configs, 2)[1:] for model, loader, configs in runs]
    results, errors = [None] * len(runs), []

    def run(index):
        try:
            model, loader, configs = runs[index]
            rngs = _streams(len(configs))
            accuracies = evaluate_multi(model, loader, configs, rngs=rngs, num_repeats=2)
            results[index] = (accuracies, _next_draws(rngs))
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert results == wants
