"""A ``repro.api`` stage's result depends only on its arguments and the seed.

Every stage draws its batches from loaders built for that call, so two
identical calls on one :class:`~repro.api.PipelineState` agree exactly:
no loader's shuffle stream carries over from the first call to the second.
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
