"""A ``repro.api`` stage's result depends only on its arguments and the seed.

Every stage draws its batches from loaders built for that call, so two
identical calls on one :class:`~repro.api.PipelineState` agree exactly:
no loader's shuffle stream carries over from the first call to the second.
The same holds for a per-layer ``noise_sigma`` arriving as a served
request: its stored accuracy is :func:`repro.api.evaluate`'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.experiments.common import clear_bundle_cache
from repro.sim import SimConfig
from repro.utils.seed import seed_everything


@pytest.fixture()
def smoke_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_bundle_cache()
    state = api.pretrain("smoke")
    yield state, SimConfig.for_profile(state.profile, mode="noisy", noise_sigma=6.0)
    clear_bundle_cache()


def _twice(stage):
    runs = []
    for _ in range(2):
        seed_everything(5)
        runs.append(stage())
    return runs


@pytest.mark.slow
def test_run_gbo_twice_on_one_state_agrees(smoke_state):
    state, sim = smoke_state
    first, second = _twice(lambda: api.run_gbo(state, sim))
    assert first.schedule == second.schedule
    assert first.result.history == second.result.history
    for a, b in zip(first.result.logits, second.result.logits):
        np.testing.assert_array_equal(a, b)


@pytest.mark.slow
def test_run_nia_twice_on_one_state_agrees(smoke_state):
    state, sim = smoke_state
    first, second = _twice(lambda: api.run_nia(state, sim))
    assert first.history == second.history
    assert first.weights.keys() == second.weights.keys()
    for name in first.weights:
        np.testing.assert_array_equal(first.weights[name], second.weights[name])


@pytest.mark.slow
def test_served_per_layer_sigma_request_equals_evaluate(smoke_state):
    from repro.experiments.runner import ScenarioGrid, run_grid
    from repro.serve import EvalRequest

    state, _ = smoke_state
    request = EvalRequest.from_payload(
        {"profile": "smoke", "sim": {"mode": "noisy", "noise_sigma": [0, 6, 0], "seed": 3}}
    )
    spec = request.spec
    assert spec.sigma is None
    assert spec.sim_config().noise_sigma == (0.0, 6.0, 0.0)
    served = run_grid(ScenarioGrid(name="served", specs=(spec,))).results[spec.hash]
    assert served["accuracy"] == api.evaluate(state, spec.sim_config()).accuracy


@pytest.mark.slow
def test_run_nia_rejects_per_layer_sigma(smoke_state):
    state, sim = smoke_state
    with pytest.raises(ValueError, match="uniform noise sigma"):
        api.run_nia(state, sim.with_changes(noise_sigma=(0.0, 6.0, 0.0)))
