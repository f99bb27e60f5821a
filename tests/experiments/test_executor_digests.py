"""Digest pins on the stored results of the executors that run ``repro.api``.

Table I, Table II, ablations A1 and A3, Fig. 2 and ``api_eval`` execute
their cells through the facade's stages (:func:`repro.api.evaluate`,
:func:`repro.api.run_gbo`, :func:`repro.api.run_nia`).  Each digest below is
the SHA-256 of one smoke-profile cell's stored result (sorted-key JSON),
recorded when the executors still wired GBO, NIA and noisy evaluation by
hand (Fig. 2's when it still made one layer noisy through a single-layer
session; Table I's ``PLA12`` and A1's ``bit_slicing`` when every cell still ran
alone).  A change that moves a single stored bit of these cells fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.common import clear_bundle_cache
from repro.experiments.profiles import get_profile
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import ScenarioGrid, run_grid

#: (registered experiment, method) -> SHA-256 of the stored smoke result.
REGISTERED_CELL_DIGESTS = {
    ("table1", "GBO-short"): "24d880d4ba2788f922f120dc7169440856ca64af4c1326657f5b95f99143a052",
    ("table1", "PLA12"): "5a05841386d1aef16f6e7676d83e8dea712c7fe88fda74cc0117f7834dd1c052",
    ("table2", "NIA+GBO"): "3c4bb0ca7a7cf53b69cc425e7c0733c970e111429bb3b14380d3c4b2ab5dc253",
    ("ablation_encoding", "thermometer"): "3d9699f4f8cc25a026f0c74cf71303b9a97e8c468ed81b5c4b36bd15edbf1a81",
    ("ablation_encoding", "bit_slicing"): "ceae23507f0b8098c2ee53b2b50620481a9e83e4132dd49f38f9c67ff745a2b5",
    ("ablation_gamma", "gamma0.0005"): "e56a745d74fd2a7937b6baaa77eb4a8ea3a9e8bba25d936f080c0441bb568740",
    ("fig2", "layer1"): "a73b285f9b9f9a087421e365f662ae4e39dd50a78bc2a54af022f2c3c0bea9c7",
}

#: SHA-256 of the stored result of one served ``api_eval`` request.
API_EVAL_DIGEST = "15bf7adc25be478831fa12685691cba7d9bea50e56e00df6055692cf0aa5a6cf"


def _digest(result) -> str:
    text = json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture()
def smoke_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_bundle_cache()
    yield get_profile("smoke")
    clear_bundle_cache()


def _first_cell(identifier: str, method: str, profile):
    """The registered smoke grid's first spec of ``method``."""
    return next(spec for spec in EXPERIMENTS[identifier].grid(profile) if spec.method == method)


def _stored(spec):
    outcome = run_grid(ScenarioGrid(name="pin", specs=(spec,)))
    return outcome.results[spec.hash]


@pytest.mark.slow
@pytest.mark.parametrize("identifier, method", sorted(REGISTERED_CELL_DIGESTS))
def test_registered_cell_result_is_pinned(smoke_cache, identifier, method):
    spec = _first_cell(identifier, method, smoke_cache)
    assert _digest(_stored(spec)) == REGISTERED_CELL_DIGESTS[(identifier, method)]


@pytest.mark.slow
def test_api_eval_result_is_pinned(smoke_cache):
    from repro.api import eval_scenario_spec
    from repro.sim import SimConfig

    spec = eval_scenario_spec(
        smoke_cache, SimConfig(mode="noisy", noise_sigma=6.0, pulses=10), num_repeats=2
    )
    assert _digest(_stored(spec)) == API_EVAL_DIGEST
