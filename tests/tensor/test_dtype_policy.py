"""Tests for the process compute-dtype policy (:mod:`repro.tensor.dtype`).

The contract has two halves: at the float64 default nothing changes — every
materialisation and every RNG draw is bit-identical to the historical
behaviour — and under an explicit float32 policy every array the library
creates (tensor storage, constructors, RNG draws, one-hot targets, module
buffers, init schemes) comes out single-precision with no silent upcasts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import init
from repro.nn.module import Module
from repro.tensor import (
    DEFAULT_COMPUTE_DTYPE,
    Tensor,
    compute_dtype,
    compute_dtype_name,
    compute_dtype_scope,
    resolve_dtype,
    set_compute_dtype,
)
from repro.tensor.dtype import canonical_dtype_name
from repro.tensor.functional import one_hot
from repro.tensor.random import RandomState


class TestPolicyValue:
    def test_default_is_float64(self):
        assert DEFAULT_COMPUTE_DTYPE == "float64"
        assert compute_dtype() == np.dtype(np.float64)
        assert compute_dtype_name() == "float64"

    def test_scope_installs_and_restores(self):
        with compute_dtype_scope("float32") as dtype:
            assert dtype == np.dtype(np.float32)
            assert compute_dtype_name() == "float32"
        assert compute_dtype_name() == "float64"

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with compute_dtype_scope("float32"):
                raise RuntimeError("boom")
        assert compute_dtype_name() == "float64"

    def test_set_returns_previous(self):
        previous = set_compute_dtype("float32")
        try:
            assert previous == np.dtype(np.float64)
            assert compute_dtype_name() == "float32"
        finally:
            set_compute_dtype(previous)

    def test_canonical_name_accepts_names_and_dtypes(self):
        assert canonical_dtype_name("float32") == "float32"
        assert canonical_dtype_name(np.float64) == "float64"
        assert canonical_dtype_name(np.dtype(np.float32)) == "float32"

    def test_unsupported_dtypes_rejected(self):
        for bad in ("float16", np.int64, "bogus"):
            with pytest.raises((ValueError, TypeError)):
                canonical_dtype_name(bad)
        with pytest.raises(ValueError):
            set_compute_dtype("float16")

    def test_resolve_explicit_wins_over_policy(self):
        with compute_dtype_scope("float32"):
            assert resolve_dtype(np.float64) == np.dtype(np.float64)
            assert resolve_dtype() == np.dtype(np.float32)


class TestMaterialisation:
    """Everything the library materialises honours the policy."""

    def test_tensor_storage_follows_policy(self):
        with compute_dtype_scope("float32"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
            assert Tensor.zeros(3).data.dtype == np.float32
            assert Tensor.ones(2, 2).data.dtype == np.float32
        assert Tensor([1.0]).data.dtype == np.float64

    def test_from_numpy_coerces_to_policy(self):
        source = np.arange(4, dtype=np.float64)
        with compute_dtype_scope("float32"):
            assert Tensor.from_numpy(source).data.dtype == np.float32
        assert Tensor.from_numpy(np.float32(1.0) * source).data.dtype == np.float64

    def test_gradients_match_storage_dtype(self):
        with compute_dtype_scope("float32"):
            x = Tensor([1.0, 2.0], requires_grad=True)
            (x * x).sum().backward()
            assert x.grad.dtype == np.float32

    def test_one_hot_follows_policy(self):
        with compute_dtype_scope("float32"):
            assert one_hot(np.array([0, 2]), 3).dtype == np.float32
        assert one_hot(np.array([0, 2]), 3).dtype == np.float64

    def test_init_schemes_follow_policy(self):
        with compute_dtype_scope("float32"):
            assert init.zeros((2, 2)).dtype == np.float32
            assert init.ones((2,)).dtype == np.float32
            assert init.kaiming_normal((4, 4), rng=RandomState(0)).dtype == np.float32
            assert init.xavier_uniform((4, 4), rng=RandomState(0)).dtype == np.float32

    def test_module_buffers_follow_policy(self):
        module = Module()
        with compute_dtype_scope("float32"):
            module.register_buffer("stat", np.zeros(3))
            assert module._buffers["stat"].dtype == np.float32


class TestRandomState:
    def test_draw_dtypes_follow_policy(self):
        with compute_dtype_scope("float32"):
            rng = RandomState(0)
            assert rng.normal(size=5).dtype == np.float32
            assert rng.normal(1.0, 2.5, size=5).dtype == np.float32
            assert rng.uniform(-1.0, 1.0, size=5).dtype == np.float32
        rng = RandomState(0)
        assert rng.normal(size=5).dtype == np.float64

    def test_float64_stream_is_untouched_by_policy_machinery(self):
        """The default path must be numpy's Generator.normal verbatim."""
        expected = np.random.default_rng(123).normal(0.5, 2.0, size=(3, 4))
        np.testing.assert_array_equal(RandomState(123).normal(0.5, 2.0, size=(3, 4)), expected)

    def test_float32_moments_are_sane(self):
        with compute_dtype_scope("float32"):
            draws = RandomState(5).normal(1.0, 2.0, size=200_000)
        assert float(np.mean(draws)) == pytest.approx(1.0, abs=0.02)
        assert float(np.std(draws)) == pytest.approx(2.0, abs=0.02)
