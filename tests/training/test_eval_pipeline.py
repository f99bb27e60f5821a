"""Stacked noisy evaluation in two lanes (:func:`evaluate_multi`).

With two or more configs on a one-thread BLAS pool,
:class:`repro.sim.MultiSession` runs the first half of each batch's
scenarios on the calling thread and the rest on one helper thread, on a
replica of the model.  (Every test here pins this process's pool to one
thread for its duration.)  That must change nothing the
step-by-step loop produces — one ``MultiSession.forward`` loop per
scenario, which starts no thread:

* per scenario, the logits of every batch, the accuracies, and the next
  two draws of every stream afterwards — so a stream drawn one batch too
  far, or in another order, shows;
* with full batches, a last batch shorter than the others, two repeats, an
  odd K, clean and sigma-0 scenarios beside noisy ones (their streams
  untouched), on the VGG9, the MLP and the LeNet;
* each stream is drawn on its lane's thread only; the first layer reads
  once per distinct encoding per batch, on the calling thread, and every
  layer past the stem runs at batch N in both lanes; the helper lane
  records no graph and resolves the caller's execution context; one
  config, or a 2-thread BLAS pool, starts no thread and builds no replica;
* an error on either lane reaches the caller with the helper joined and
  the layers' streams and memo restored; no thread outlives the call.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.context import ExecutionContext, use_context
from repro.data import DataLoader, TensorDataset
from repro.models import VGG9, CrossbarLeNet, CrossbarMLP, VGGConfig
from repro.sim import MultiSession, SimConfig
from repro.tensor import Tensor, no_grad
from repro.tensor.random import RandomState
from repro.training import evaluate
from repro.training.evaluate import evaluate_multi
from repro.training.metrics import AverageMeter, accuracy_from_logits
from repro.utils.step_ahead import StepAheadThread
from repro.worker_env import blas_pool_pinned

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
    "full_batches": (NOISY, 12, 1, "vgg9"),
    "short_last_batch": (NOISY, 15, 1, "vgg9"),  # 6, 6 and 3
    "two_repeats": (NOISY, 15, 2, "vgg9"),
    "mixed": (MIXED, 15, 2, "vgg9"),
    "odd_mixed": (MIXED + [SimConfig(mode="noisy", noise_sigma=1.5, pulses=6)], 15, 1, "vgg9"),
    "mlp": (MIXED, 15, 2, "mlp"),
    "lenet": (MIXED, 15, 2, "lenet"),
}


@pytest.fixture(autouse=True)
def _blas_pinned():
    with blas_pool_pinned(1) as threads:
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS was not found")
        yield


def _model(name):
    if name == "mlp":
        model = CrossbarMLP(
            in_features=256, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(SEED)
        )
    elif name == "lenet":
        model = CrossbarLeNet(
            num_classes=4, in_channels=1, image_size=16, base_channels=4, rng=RandomState(SEED)
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
    """Logits per batch, accuracies and next draws of one loop per scenario."""
    rngs = _streams(len(configs))
    per_scenario, accuracies = [], []
    for config, rng in zip(configs, rngs):
        blocks, repeats = [], []
        with MultiSession(model, [config], rngs=[rng]) as session, no_grad():
            for _ in range(num_repeats):
                meter = AverageMeter("accuracy")
                for inputs, targets in loader:
                    (block,) = session.forward(Tensor(inputs))
                    blocks.append(block.data.copy())
                    meter.update(accuracy_from_logits(block, targets), weight=len(targets))
                repeats.append(meter.average)
        per_scenario.append(blocks)
        accuracies.append(repeats)
    logits = [list(batch) for batch in zip(*per_scenario)]
    return logits, accuracies, _next_draws(rngs)


def _in_lanes(monkeypatch, model, loader, configs, num_repeats=1):
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
        assert len(got_batch) == len(want_batch)
        for got_block, want_block in zip(got_batch, want_batch):
            np.testing.assert_array_equal(got_block, want_block)
    assert got_accuracies == want_accuracies
    assert got_draws == want_draws


def _helpers_alive():
    return [t.name for t in threading.enumerate() if isinstance(t, StepAheadThread)]


def _layer_state(model):
    return [
        (layer.noise_rng, layer._read_memo, layer.mode, layer.noise_sigma, layer.num_pulses)
        for layer in model.encoded_layers()
    ]


def _recording_bodies(monkeypatch, model, fail=None):
    """Record each ``forward_body`` call as ``(thread, model, graph?)``.

    Patched on the class, so the replica's calls are seen too.  ``fail``
    is ``(thread name, call)``: that call on that thread raises.
    """
    calls, counts = [], {}
    body = type(model).forward_body

    def recording(self, x):
        thread = threading.current_thread().name
        counts[thread] = counts.get(thread, 0) + 1
        if fail == (thread, counts[thread]):
            raise RuntimeError(f"body failed on {thread}")
        out = body(self, x)
        calls.append((thread, self, out.requires_grad or bool(out._parents)))
        return out

    monkeypatch.setattr(type(model), "forward_body", recording)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine", ENGINES)
def test_lanes_match_step_by_step(monkeypatch, engine, case):
    configs, num_samples, num_repeats, model_name = CASES[case]
    configs = _configs(configs, engine)
    model, loader = _model(model_name), _loader(num_samples)
    want = _step_by_step(model, loader, configs, num_repeats)
    threads = threading.active_count()
    got = _in_lanes(monkeypatch, model, loader, configs, num_repeats)
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


class _ThreadLoggingStream(RandomState):
    """A stream noting the thread of each ``normal`` call, or failing at one."""

    def __init__(self, seed, fail_at=None):
        super().__init__(seed)
        self.threads = []
        self.fail_at = fail_at

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.threads.append(threading.current_thread().name)
        if len(self.threads) == self.fail_at:
            raise RuntimeError(f"draw failed on {self.threads[-1]}")
        return super().normal(loc, scale, size)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_each_stream_is_drawn_on_its_lanes_thread_only(count):
    configs = [
        SimConfig(mode="noisy", noise_sigma=1.0 + k, engine="vectorized") for k in range(count)
    ]
    rngs = [_ThreadLoggingStream(SEED + k) for k in range(count)]
    evaluate_multi(_model("vgg9"), _loader(15), configs, rngs=rngs)
    caller = threading.current_thread().name
    first = (count + 1) // 2
    for k, rng in enumerate(rngs):
        assert rng.threads, k
        assert set(rng.threads) == {caller if k < first else "eval-lane"}, k


def test_helper_lane_runs_on_a_replica_and_records_no_graph(monkeypatch):
    model = _model("vgg9")
    model.requires_grad_(True)
    calls = _recording_bodies(monkeypatch, model)
    evaluate_multi(model, _loader(15), _configs(NOISY, "vectorized"), rngs=_streams(3))
    caller = threading.current_thread().name
    # Per batch: scenarios 0 and 1 on the caller's model, 2 on the replica.
    assert [thread for thread, _, _ in calls].count("eval-lane") == 3
    for thread, body_of, graph in calls:
        assert (body_of is model) == (thread == caller)
        assert not graph, thread
    # Unguarded, the same forward would record one.
    with MultiSession(model, _configs(NOISY[:1], "vectorized"), rngs=_streams(1)) as session:
        session.forward(Tensor(_loader(6).dataset.inputs))
    assert calls[-1][2]


@pytest.mark.parametrize("case", ["one_config", "blas_unpinned"])
def test_one_lane_starts_no_thread_and_builds_no_replica(monkeypatch, case):
    from repro.sim import multi

    configs = _configs(NOISY[:1] if case == "one_config" else NOISY, "vectorized")
    model = _model("vgg9")
    calls = _recording_bodies(monkeypatch, model)
    lanes = []
    monkeypatch.setattr(multi, "_HelperLane", lambda *args, **kwargs: lanes.append(args))
    threads = threading.active_count()
    with blas_pool_pinned(1 if case == "one_config" else 2):
        evaluate_multi(model, _loader(15), configs, rngs=_streams(len(configs)))
    caller = threading.current_thread().name
    assert [(thread, body_of) for thread, body_of, _ in calls] == [(caller, model)] * (
        3 * len(configs)
    )
    assert not lanes
    assert threading.active_count() == threads


def test_one_read_per_encoding_and_batch_n_everywhere_in_lanes(monkeypatch):
    """`tests/backend/test_multi_scenario.py`'s two shape checks, in lanes.

    Patched on the classes, so the replica's layers are seen too.
    """
    from repro.core.encoder_layer import EncodedConv2d, EncodedLinear
    from repro.nn import Linear

    model, loader = _model("vgg9"), _loader(12)
    reads, rows = [], []
    for cls in (EncodedConv2d, EncodedLinear, Linear):
        def forward(self, x, _forward=cls.forward):
            rows.append(x.shape[0])
            return _forward(self, x)

        monkeypatch.setattr(cls, "forward", forward)
    read = EncodedConv2d._ideal_read

    def ideal_read(self, encoded):
        if self._read_memo is not None:  # the first layer
            reads.append((threading.current_thread().name, encoded.shape[0]))
        return read(self, encoded)

    monkeypatch.setattr(EncodedConv2d, "_ideal_read", ideal_read)
    calls = _recording_bodies(monkeypatch, model)
    evaluate_multi(model, loader, _configs(NOISY, "vectorized"), rngs=_streams(3))
    caller = threading.current_thread().name
    assert {thread for thread, _, _ in calls} == {caller, "eval-lane"}
    # NOISY has three encodings (8, 4 and 12 pulses), each read once per batch.
    assert reads == [(caller, 6)] * (len(NOISY) * len(loader))
    layers = len(model.encoded_layers()) + 1  # and the classifier
    assert rows == [6] * (len(NOISY) * len(loader) * layers)


@pytest.mark.parametrize("engine", ENGINES)
def test_nan_input_raises_with_the_helper_joined_and_state_restored(engine):
    model, loader = _model("vgg9"), _loader(18)
    loader.dataset.inputs[14, 0, 3, 3] = np.nan  # the third batch
    before = _layer_state(model)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="NaN"):
        evaluate_multi(model, loader, _configs(NOISY, engine), rngs=_streams(len(NOISY)))
    assert threading.active_count() == threads
    assert not _helpers_alive()
    assert _layer_state(model) == before


@pytest.mark.parametrize("lane", ["caller", "helper"])
@pytest.mark.parametrize("engine", ENGINES)
def test_error_in_a_body_raises_with_the_helper_joined_and_state_restored(
    monkeypatch, engine, lane
):
    model, loader = _model("vgg9"), _loader(18)
    # The second batch: the caller runs two bodies per batch, the helper one.
    if lane == "caller":
        thread, call = threading.current_thread().name, 3
    else:
        thread, call = "eval-lane", 2
    _recording_bodies(monkeypatch, model, fail=(thread, call))
    before = _layer_state(model)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"body failed on {thread}"):
        evaluate_multi(model, loader, _configs(NOISY, engine), rngs=_streams(len(NOISY)))
    assert threading.active_count() == threads
    assert not _helpers_alive()
    assert _layer_state(model) == before


@pytest.mark.parametrize("scenario", [0, 2])
def test_error_in_a_draw_reaches_the_caller_from_either_lane(scenario):
    model, loader = _model("vgg9"), _loader(18)
    rngs = _streams(len(NOISY))
    rngs[scenario] = _ThreadLoggingStream(SEED, fail_at=9)  # 7 layers: a second-batch draw
    thread = threading.current_thread().name if scenario == 0 else "eval-lane"
    before = _layer_state(model)
    with pytest.raises(RuntimeError, match=f"draw failed on {thread}"):
        evaluate_multi(model, loader, _configs(NOISY, "vectorized"), rngs=rngs)
    assert not _helpers_alive()
    assert _layer_state(model) == before


def test_forward_after_a_helper_error_raises_instead_of_hanging():
    model, loader = _model("vgg9"), _loader(12)
    rngs = _streams(len(NOISY))
    rngs[2] = _ThreadLoggingStream(SEED, fail_at=1)
    batches = [Tensor(inputs) for inputs, _ in loader]
    with MultiSession(model, _configs(NOISY, "vectorized"), rngs=rngs) as session, no_grad():
        with pytest.raises(RuntimeError, match="draw failed on eval-lane"):
            session.forward(batches[0])
        with pytest.raises(RuntimeError, match="helper lane stopped"):
            session.forward(batches[1])
    assert not _helpers_alive()


def test_empty_loader_evaluates_nothing():
    configs = _configs(NOISY, "vectorized")
    rngs = _streams(len(configs))
    assert evaluate_multi(_model("vgg9"), [], configs, rngs=rngs, num_repeats=2) == [
        [0.0, 0.0] for _ in configs
    ]
    assert _next_draws(rngs) == _next_draws(_streams(len(configs)))
    assert not _helpers_alive()


def test_helper_lane_resolves_the_callers_execution_context(monkeypatch):
    """In an activated float32 context the helper lane computes in float32,
    as the step-by-step loop does there: it resolves the caller's context."""
    configs = _configs(NOISY, "vectorized")
    loader = _loader(15)
    with use_context(ExecutionContext(dtype="float32")):
        want = _step_by_step(_model("vgg9"), loader, configs)
        got = _in_lanes(monkeypatch, _model("vgg9"), loader, configs)
    _assert_same(got, want)
    assert all(block.dtype == np.float32 for batch in got[0] for block in batch)


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
