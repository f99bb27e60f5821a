"""Tests for the seeded random-number helpers."""

import numpy as np
import pytest

from repro.tensor.random import RandomState, default_rng, manual_seed


class TestRandomState:
    def test_same_seed_same_sequence(self):
        a = RandomState(123).normal(size=10)
        b = RandomState(123).normal(size=10)
        assert np.allclose(a, b)

    def test_different_seed_different_sequence(self):
        a = RandomState(1).normal(size=10)
        b = RandomState(2).normal(size=10)
        assert not np.allclose(a, b)

    def test_reseed_restarts_sequence(self):
        rng = RandomState(5)
        first = rng.normal(size=4)
        rng.reseed(5)
        assert np.allclose(rng.normal(size=4), first)

    def test_uniform_bounds(self):
        samples = RandomState(0).uniform(2.0, 3.0, size=1000)
        assert samples.min() >= 2.0
        assert samples.max() < 3.0

    def test_randint_bounds(self):
        samples = RandomState(0).randint(0, 10, size=1000)
        assert samples.min() >= 0
        assert samples.max() <= 9

    def test_permutation_is_permutation(self):
        perm = RandomState(0).permutation(20)
        assert sorted(perm.tolist()) == list(range(20))

    def test_spawn_is_deterministic_and_independent(self):
        parent_a = RandomState(9)
        parent_b = RandomState(9)
        child_a = parent_a.spawn()
        child_b = parent_b.spawn()
        assert np.allclose(child_a.normal(size=5), child_b.normal(size=5))

    def test_choice(self):
        picks = RandomState(0).choice(np.array([1, 2, 3]), size=50)
        assert set(np.unique(picks)).issubset({1, 2, 3})


class TestDefaultRng:
    def test_manual_seed_controls_default(self):
        manual_seed(77)
        first = default_rng().normal(size=5)
        manual_seed(77)
        second = default_rng().normal(size=5)
        assert np.allclose(first, second)

    def test_seed_attribute(self):
        assert RandomState(11).seed == 11


class _Recording:
    """Delegates to a numpy Generator and records which samplers ran."""

    def __init__(self, generator):
        self._generator = generator
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._generator, name)


class TestNormalDrawThenScale:
    """At float64 ``normal(0, s)`` draws ``standard_normal`` and scales it in
    place; the bits must be those of ``Generator.normal(0, s)``."""

    @pytest.mark.parametrize("scale", [1.0, 1, 0.37, 2.5, 3, np.float32(0.3), np.array(0.7)])
    @pytest.mark.parametrize("size", [None, 0, (0, 3), 7, (4, 5), (2, 3, 4, 5)])
    def test_matches_generator_normal_bit_for_bit(self, scale, size):
        ours = RandomState(11).normal(0.0, scale, size=size)
        numpy_draw = np.random.default_rng(11).normal(0.0, scale, size=size)
        assert type(ours) is type(numpy_draw)
        assert np.asarray(ours).dtype == np.asarray(numpy_draw).dtype
        assert np.asarray(ours).shape == np.asarray(numpy_draw).shape
        assert np.asarray(ours).tobytes() == np.asarray(numpy_draw).tobytes()

    def test_stream_continues_identically(self):
        rng = RandomState(12)
        reference = np.random.default_rng(12)
        for scale, size in [(1.0, (3, 4)), (0.5, 0), (2.0, 9), (1.0, None)]:
            ours = rng.normal(0.0, scale, size=size)
            assert np.asarray(ours).tobytes() == np.asarray(
                reference.normal(0.0, scale, size=size)
            ).tobytes()

    @pytest.mark.parametrize(
        "loc, scale",
        [
            (0.0, np.array([0.5, 1.0, 2.0])),
            (0.25, 1.0),
            (np.array([0.0, 1.0, 2.0]), 1.0),
            (0.0, 0.0),
        ],
    )
    def test_array_scale_nonzero_loc_or_zero_scale_take_generator_normal(self, loc, scale):
        rng = RandomState(13)
        rng._rng = _Recording(rng._rng)
        ours = rng.normal(loc, scale, size=3)
        assert rng._rng.calls == ["normal"]
        expected = np.random.default_rng(13).normal(loc, scale, size=3)
        assert ours.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_scalar_scale_draws_standard_normal(self, scale):
        rng = RandomState(14)
        rng._rng = _Recording(rng._rng)
        rng.normal(0.0, scale, size=(2, 2))
        assert rng._rng.calls == ["standard_normal"]

    def test_negative_scale_raises_like_generator_normal(self):
        with pytest.raises(ValueError):
            RandomState(15).normal(0.0, -1.0, size=3)
