"""Tests for :mod:`repro.context` — the explicit execution context.

Three obligations are pinned here:

1. **Bit-identity of the default path** — code that never opts into a
   context resolves the shared process-default :class:`ExecutionContext`,
   including from freshly started threads, so the facades behave exactly
   like the module-level globals they replaced.
2. **Isolation** — an activated context confines dtype/RNG/grad/bundle
   mutations to its thread; nothing leaks into the default context
   (the "worker context cannot leak" half of the runner contract).
3. **Concurrency unlock** — two threads running sessions with *different*
   compute dtypes succeed when each binds its own context, the exact
   overlap the old process-global policy had to forbid with
   :class:`~repro.sim.ConcurrentDtypeError`.
"""

from __future__ import annotations

import threading

import pytest

from repro.context import (
    BoundedCache,
    ExecutionContext,
    current_context,
    default_context,
    fresh_context,
    use_context,
)
from repro.models import CrossbarMLP
from repro.sim import ConcurrentDtypeError, Session, SimConfig
from repro.tensor.dtype import compute_dtype_name, set_compute_dtype
from repro.tensor.random import RandomState, default_rng, manual_seed


def _tiny_mlp(seed: int) -> CrossbarMLP:
    return CrossbarMLP(
        in_features=3 * 8 * 8,
        hidden_sizes=(16,),
        num_classes=10,
        rng=RandomState(seed),
    )


class TestBoundedCache:
    def test_lru_eviction_keeps_most_recent(self):
        cache = BoundedCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now oldest
        cache.put("c", 3)
        assert len(cache) == 2
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_get_default_on_miss(self):
        cache = BoundedCache(max_entries=1)
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="max_entries"):
            BoundedCache(max_entries=0)


class TestExecutionContext:
    def test_defaults_match_historical_globals(self):
        context = ExecutionContext()
        assert context.dtype_name == "float64"
        assert context.grad_enabled is True
        assert context.bundles == {}

    def test_set_dtype_returns_previous(self):
        context = ExecutionContext()
        previous = context.set_dtype("float32")
        assert previous.name == "float64"
        assert context.dtype_name == "float32"

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="unsupported compute dtype"):
            ExecutionContext(dtype="int32")

    def test_rng_is_lazy_and_deterministic(self):
        import numpy as np

        a, b = ExecutionContext(seed=7), ExecutionContext(seed=7)
        assert np.allclose(a.rng.normal(size=(4,)), b.rng.normal(size=(4,)))

    def test_derive_inherits_policy_not_state(self):
        parent = ExecutionContext(dtype="float32", grad_enabled=False)
        parent.bundles["token"] = object()
        parent.bounded_cache("memo").put("k", "v")
        child = parent.derive()
        assert child.dtype_name == "float32"
        assert child.grad_enabled is False
        assert child.bundles == {}
        assert "k" not in child.bounded_cache("memo")

    def test_bounded_cache_is_named_and_persistent(self):
        context = ExecutionContext()
        assert context.bounded_cache("memo") is context.bounded_cache("memo")
        assert context.bounded_cache("memo") is not context.bounded_cache("other")


class TestContextResolution:
    def test_unbound_thread_resolves_process_default(self):
        seen = []
        thread = threading.Thread(target=lambda: seen.append(current_context()))
        thread.start()
        thread.join()
        # ContextVars do not propagate into new threads, so a fresh thread
        # falls back to the one shared default — the old global behaviour.
        assert seen == [default_context()]

    def test_use_context_scopes_and_restores(self):
        outer = current_context()
        scoped = fresh_context(dtype="float32")
        with use_context(scoped) as active:
            assert active is scoped
            assert current_context() is scoped
            assert compute_dtype_name() == "float32"
        assert current_context() is outer
        assert compute_dtype_name() == "float64"

    def test_facades_resolve_the_current_context(self):
        scoped = fresh_context()
        with use_context(scoped):
            set_compute_dtype("float32")
            manual_seed(99)
            assert scoped.dtype_name == "float32"
            assert default_rng() is scoped.rng
        # Nothing reached the default context.
        assert default_context().dtype_name == "float64"
        assert default_rng() is default_context().rng


class TestWorkerContextCannotLeak:
    def test_thread_bound_context_mutations_stay_in_thread(self):
        """A worker-style thread activating its own context leaks nothing."""
        from repro.context import activate_context

        done = threading.Event()
        errors = []

        def worker():
            try:
                context = activate_context(
                    ExecutionContext(name="test-worker", seed=5)
                )
                set_compute_dtype("float32")
                context.grad_enabled = False
                context.bundles["poison"] = object()
                manual_seed(123)
                assert compute_dtype_name() == "float32"
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)
            finally:
                done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        assert done.wait(10.0)
        thread.join()
        assert not errors
        # The default context saw none of the worker's mutations.
        assert default_context().dtype_name == "float64"
        assert default_context().grad_enabled is True
        assert "poison" not in default_context().bundles
        assert compute_dtype_name() == "float64"


class TestGradFlagIsThreadScoped:
    """``no_grad()`` in one thread never stops another from recording.

    Both threads resolve one shared :class:`ExecutionContext` — the process
    default, or an explicit context a helper inherits through
    :func:`contextvars.copy_context` — so a flag written onto the context
    object would switch recording off for both.
    """

    @staticmethod
    def _record_while_other_thread_in_no_grad(start):
        """Thread A holds ``no_grad()`` open while thread B builds a graph."""
        import numpy as np

        from repro.tensor import Tensor, is_grad_enabled, no_grad

        inside, recorded = threading.Event(), threading.Event()
        seen = {}

        def hold_no_grad():
            with no_grad():
                inside.set()
                seen["a_enabled"] = is_grad_enabled()
                assert recorded.wait(10.0)
                seen["a_still_disabled"] = not is_grad_enabled()

        def record():
            assert inside.wait(10.0)
            leaf = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            out = (leaf * leaf).sum()
            seen["b_enabled"] = is_grad_enabled()
            seen["b_requires_grad"] = out.requires_grad
            out.backward()
            seen["b_grad"] = leaf.grad.tolist()
            recorded.set()

        threads = [start(hold_no_grad), start(record)]
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        return seen

    def _check(self, seen):
        assert seen["a_enabled"] is False and seen["a_still_disabled"] is True
        assert seen["b_enabled"] is True and seen["b_requires_grad"] is True
        assert seen["b_grad"] == [2.0, 4.0]

    def test_unbound_threads_on_the_process_default(self):
        def start(target):
            thread = threading.Thread(target=target)
            thread.start()
            return thread

        self._check(self._record_while_other_thread_in_no_grad(start))
        assert default_context().grad_enabled is True

    def test_helper_started_under_copy_context(self):
        import contextvars

        shared = ExecutionContext(name="shared")

        def start(target):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(target,))
            thread.start()
            return thread

        with use_context(shared):
            seen = self._record_while_other_thread_in_no_grad(start)
        self._check(seen)
        assert shared.grad_enabled is True


class TestConcurrentSessionsAcrossContexts:
    def test_two_threads_hold_different_dtypes_concurrently(self):
        """The overlap ConcurrentDtypeError used to forbid now succeeds.

        Each thread binds its *own* context via ``Session(context=...)``;
        a barrier inside the session bodies proves both dtype policies are
        live at the same instant.
        """
        barrier = threading.Barrier(2, timeout=10.0)
        observed = {}
        errors = []

        def run(dtype: str, seed: int):
            model = _tiny_mlp(seed)
            config = SimConfig(mode="noisy", noise_sigma=2.0, dtype=dtype)
            try:
                with Session(model, config, context=ExecutionContext()):
                    barrier.wait()  # both sessions entered: overlap is real
                    observed[dtype] = compute_dtype_name()
                    barrier.wait()  # neither exits before both observed
            except BaseException as error:
                errors.append(error)
                try:
                    barrier.abort()
                except Exception:  # pragma: no cover - best effort
                    pass

        threads = [
            threading.Thread(target=run, args=("float32", 1)),
            threading.Thread(target=run, args=("float64", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert observed == {"float32": "float32", "float64": "float64"}
        # The parent context was never touched.
        assert compute_dtype_name() == "float64"
        assert not current_context().active_dtype_sessions()

    def test_same_context_overlap_still_conflicts(self):
        """Sharing one explicit context keeps the guard: conflicts raise."""
        shared = ExecutionContext()
        with Session(_tiny_mlp(3), SimConfig(dtype="float32"), context=shared):
            with pytest.raises(ConcurrentDtypeError, match="sharing one context"):
                with Session(_tiny_mlp(4), SimConfig(dtype="float64"), context=shared):
                    pass  # pragma: no cover - never entered
        assert shared.dtype_name == "float64"


class TestFig2LayerCountCache:
    def test_layer_count_memo_is_bounded_and_context_local(self):
        from repro.experiments.fig2 import encoded_layer_count
        from repro.experiments.profiles import get_profile

        default_memo = default_context().bounded_cache("fig2_layer_counts")
        default_size = len(default_memo)
        context = fresh_context()
        with use_context(context):
            counts = [
                encoded_layer_count(
                    get_profile("smoke").with_overrides(num_classes=10 + shift)
                )
                for shift in range(12)
            ]
            cache = context.bounded_cache("fig2_layer_counts")
            # 12 distinct shapes were memoised through an 8-entry LRU: the
            # cache stayed bounded instead of growing per key forever.
            assert len(cache) == 8
        assert all(count == counts[0] for count in counts)
        assert counts[0] > 0
        # The memo stayed on the scoped context: whatever earlier tests left
        # in the default context's memo, the block added nothing to it.
        assert len(default_context().bounded_cache("fig2_layer_counts")) == default_size

    def test_layer_count_cache_hit_skips_rebuild(self, monkeypatch):
        from repro.experiments import fig2
        from repro.experiments.profiles import get_profile

        profile = get_profile("smoke")
        with use_context(fresh_context()):
            first = fig2.encoded_layer_count(profile)

            def explode(_profile):  # pragma: no cover - must not run
                raise AssertionError("cache miss: model was rebuilt")

            monkeypatch.setattr(
                "repro.experiments.common.build_model", explode
            )
            assert fig2.encoded_layer_count(profile) == first
