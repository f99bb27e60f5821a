"""Shared experiment infrastructure: data building, model building and a
cached pre-training stage.

Pre-training the binary-weight network is by far the most expensive step of
the reproduction, and every table/figure needs the same pre-trained model.
:func:`get_pretrained_bundle` therefore memoises the result both in-process
and on disk (the directory returned by :func:`get_cache_dir`), keyed by the
profile, so the benchmark harness and the scenario runner's worker processes
pre-train exactly once per profile.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data import DataLoader, SyntheticImageConfig, make_synthetic_cifar
from repro.data.dataset import Subset, TensorDataset
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.models import VGG9, CrossbarLeNet, CrossbarMLP, VGGConfig
from repro.sim import SimConfig, apply_config, resolve_engine_name
from repro.tensor.random import RandomState
from repro.training import PretrainConfig, evaluate_accuracy, pretrain_model
from repro.training.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    update_checkpoint_metadata,
)
from repro.utils.logging import get_logger
from repro.utils.seed import seed_everything

LOGGER = get_logger("repro.experiments")

#: Environment variable overriding the on-disk cache directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"


def get_cache_dir() -> str:
    """On-disk cache directory for pre-trained models and scenario results.

    Resolved lazily on every call so ``REPRO_CACHE_DIR`` set *after* this
    module was imported (by tests, the CLI's ``--cache-dir`` flag, or a
    worker process) is honoured.
    """
    return os.environ.get(CACHE_ENV_VAR, os.path.join(os.getcwd(), ".repro_cache"))


# The pre-trained bundle cache lives on the current ExecutionContext
# (``current_context().bundles``) — each worker process/explicit context
# owns its own bundles, and bounded holders (a worker process's bundle
# cache) release memory through :func:`evict_bundle` without reaching into
# module state.
#
# The dataset cache stays module-level on purpose: dataset arrays are an
# immutable pure function of the profile (explicit seeds throughout), so
# sharing them across contexts is safe and avoids re-generating identical
# arrays per context.
_DATASET_CACHE: Dict[Tuple, Tuple[TensorDataset, TensorDataset]] = {}


def _bundle_cache() -> Dict[str, "ExperimentBundle"]:
    """The current execution context's bundle cache (keyed by profile token)."""
    from repro.context import current_context

    return current_context().bundles


@dataclass
class ExperimentBundle:
    """Everything an experiment needs: data loaders and a pre-trained model."""

    profile: ExperimentProfile
    model: object
    train_loader: DataLoader
    test_loader: DataLoader
    gbo_loader: DataLoader
    clean_accuracy: float
    #: Parameter/buffer state captured right after pre-training; the scenario
    #: runner restores it at the start of every scenario so execution order
    #: (and process boundaries) cannot leak state between scenarios.
    pretrained_snapshot: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def pretrained_state(self) -> Dict[str, np.ndarray]:
        """A copy of the pre-trained parameters/buffers for later restores."""
        return self.model.state_dict()

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the model to a given parameter/buffer state.

        Non-strict loading is used on purpose: the GBO stage attaches extra
        ``gbo_logits`` parameters to the encoded layers, so a state captured
        before GBO is a strict subset of the model's current parameters.
        """
        self.model.load_state_dict(state, strict=False)

    def reset(
        self, sim: Optional[SimConfig] = None, profile: Optional[ExperimentProfile] = None
    ) -> None:
        """Restore the pre-trained snapshot, re-enable gradients (a GBO stage
        freezes them) and apply ``sim`` (resolved under ``profile``), else
        the clean baseline config: no earlier user of the model leaks in."""
        self.restore(self.pretrained_snapshot)
        self.model.requires_grad_(True)
        apply_config(self.model, sim if sim is not None else SimConfig(mode="clean"), profile)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def get_datasets(profile: ExperimentProfile) -> Tuple[TensorDataset, TensorDataset]:
    """Memoised (train, test) synthetic datasets for a profile.

    Dataset generation is a pure function of the profile (explicit seeds
    throughout), so the arrays can be shared between every scenario run in a
    process; the stateful parts (loader shuffle RNGs) are rebuilt per use.
    """
    key = (
        profile.num_classes,
        profile.image_size,
        profile.num_train,
        profile.num_test,
        profile.seed,
    )
    if key not in _DATASET_CACHE:
        config = SyntheticImageConfig(
            num_classes=profile.num_classes, image_size=profile.image_size
        )
        _DATASET_CACHE[key] = make_synthetic_cifar(
            num_train=profile.num_train,
            num_test=profile.num_test,
            config=config,
            seed=profile.seed,
        )
    return _DATASET_CACHE[key]


def build_loaders(
    profile: ExperimentProfile,
) -> Tuple[DataLoader, DataLoader, DataLoader]:
    """Build (train, test, gbo) data loaders for a profile.

    The GBO loader iterates a fixed subset of the training set — the paper
    trains the encoding logits on the training data; a subset keeps the
    pure-numpy backend fast while leaving gradients representative.

    The returned loaders are freshly constructed (their shuffle RNGs start
    from the profile seed), so two calls yield bit-identical iteration
    orders; the scenario runner relies on this for order-independent,
    process-independent scenario execution.
    """
    train_set, test_set = get_datasets(profile)
    rng = RandomState(profile.seed + 1)
    train_loader = DataLoader(
        train_set, batch_size=profile.batch_size, shuffle=True, rng=rng
    )
    test_loader = DataLoader(test_set, batch_size=profile.batch_size, shuffle=False)
    subset_size = min(profile.gbo_subset, len(train_set))
    gbo_subset = Subset(train_set, list(range(subset_size)))
    gbo_loader = DataLoader(
        gbo_subset, batch_size=profile.batch_size, shuffle=True, rng=rng.spawn()
    )
    return train_loader, test_loader, gbo_loader


def build_model(profile: ExperimentProfile):
    """Instantiate the profile's network with the profile's quantisation setup.

    The encoded layers' simulation engine follows the one precedence rule of
    :func:`repro.sim.resolve_engine_name` (no explicit pin here, so the
    profile's ``backend``).
    """
    rng = RandomState(profile.seed + 2)
    model = _build_model_architecture(profile, rng)
    apply_config(model, SimConfig(engine=resolve_engine_name(None, profile)))
    return model


def _build_model_architecture(profile: ExperimentProfile, rng: RandomState):
    if profile.model == "vgg9":
        config = VGGConfig(
            num_classes=profile.num_classes,
            image_size=profile.image_size,
            width_multiplier=profile.width_multiplier,
            activation_levels=profile.activation_levels,
            sigma_relative_to_fan_in=profile.noise_relative_to_fan_in,
        )
        return VGG9(config, rng=rng)
    if profile.model == "lenet":
        return CrossbarLeNet(
            num_classes=profile.num_classes,
            image_size=profile.image_size,
            activation_levels=profile.activation_levels,
            sigma_relative_to_fan_in=profile.noise_relative_to_fan_in,
            rng=rng,
        )
    if profile.model == "mlp":
        in_features = 3 * profile.image_size * profile.image_size
        return CrossbarMLP(
            in_features=in_features,
            hidden_sizes=(96, 96, 96),
            num_classes=profile.num_classes,
            activation_levels=profile.activation_levels,
            sigma_relative_to_fan_in=profile.noise_relative_to_fan_in,
            rng=rng,
        )
    raise ValueError(f"unknown model kind {profile.model!r} in profile {profile.name!r}")


def profile_token(profile: ExperimentProfile) -> str:
    """Stable token identifying everything the pre-trained weights depend on.

    Keys the in-process bundle cache, the on-disk checkpoint and the NIA
    stage states, so it must cover every profile field that influences
    pre-training — an overridden profile that trains differently must never
    answer the base profile's cache lookups.  (Eval-only fields like
    ``eval_repeats`` or ``sigmas`` are deliberately excluded: they share the
    pre-trained weights.)
    """
    return (
        f"{profile.name}_{profile.model}_w{profile.width_multiplier}_s{profile.image_size}"
        f"_n{profile.num_train}_e{profile.pretrain_epochs}_lr{profile.pretrain_lr:g}"
        f"_b{profile.batch_size}_c{profile.num_classes}_a{profile.activation_levels}"
        f"_seed{profile.seed}"
    )


def _checkpoint_path(profile: ExperimentProfile) -> str:
    return os.path.join(get_cache_dir(), f"pretrained_{profile_token(profile)}.npz")


def get_pretrained_bundle(
    profile: Optional[ExperimentProfile] = None,
    use_disk_cache: bool = True,
    force_retrain: bool = False,
) -> ExperimentBundle:
    """Return a pre-trained model plus its data loaders for ``profile``.

    Results are memoised per profile token in-process; the pre-trained
    weights (and the measured clean accuracy, as checkpoint metadata) are
    additionally cached on disk so repeated benchmark invocations and the
    scenario runner's worker processes skip the expensive stages.
    """
    profile = profile or get_profile()
    cache = _bundle_cache()
    cache_key = profile_token(profile)
    if not force_retrain and cache_key in cache:
        return cache[cache_key]

    seed_everything(profile.seed)
    train_loader, test_loader, gbo_loader = build_loaders(profile)
    model = build_model(profile)

    checkpoint = _checkpoint_path(profile)
    loaded = False
    metadata = None
    if use_disk_cache and not force_retrain and os.path.exists(checkpoint):
        try:
            metadata = load_checkpoint(checkpoint, model)
            loaded = True
            LOGGER.info("loaded pre-trained weights from %s", checkpoint)
        except (KeyError, ValueError) as error:
            LOGGER.warning("ignoring stale checkpoint %s (%s)", checkpoint, error)
            # A failed (possibly partial) load must not leak into the
            # retrain: rebuild the model so pre-training starts from the
            # seeded initialisation, exactly as on a cache miss.
            model = build_model(profile)

    if not loaded:
        LOGGER.info(
            "pre-training %s model for profile %r (%d epochs)",
            profile.model,
            profile.name,
            profile.pretrain_epochs,
        )
        pretrain_model(
            model,
            train_loader,
            val_loader=None,
            config=PretrainConfig(
                epochs=profile.pretrain_epochs, learning_rate=profile.pretrain_lr
            ),
        )
        if use_disk_cache:
            save_checkpoint(checkpoint, model, metadata={"profile": profile.name})

    apply_config(model, SimConfig(mode="clean"))
    clean_accuracy = None
    if metadata is not None and metadata.get("clean_accuracy_num_test") == profile.num_test:
        # The token excludes eval-only fields, so the cached measurement is
        # only valid if it was taken on this profile's test-set size.
        clean_accuracy = metadata.get("clean_accuracy")
    if clean_accuracy is None:
        clean_accuracy = evaluate_accuracy(model, test_loader)
        if use_disk_cache and os.path.exists(checkpoint):
            # Remember the measurement so later loads (e.g. scenario-runner
            # workers) skip the evaluation pass entirely.
            update_checkpoint_metadata(
                checkpoint,
                {
                    "clean_accuracy": clean_accuracy,
                    "clean_accuracy_num_test": profile.num_test,
                },
            )
    clean_accuracy = float(clean_accuracy)
    LOGGER.info("clean accuracy for profile %r: %.2f%%", profile.name, clean_accuracy)

    bundle = ExperimentBundle(
        profile=profile,
        model=model,
        train_loader=train_loader,
        test_loader=test_loader,
        gbo_loader=gbo_loader,
        clean_accuracy=clean_accuracy,
        pretrained_snapshot=model.state_dict(),
    )
    cache[cache_key] = bundle
    return bundle


def cached_clean_accuracy(profile: ExperimentProfile) -> Optional[float]:
    """The clean accuracy recorded in the profile's checkpoint metadata.

    Lets read-only consumers (the store-driven report builder) avoid loading
    — or worse, pre-training — the model just to label a report header.
    Returns ``None`` when no cached measurement exists.
    """
    import json

    from repro.utils.serialization import load_metadata

    try:
        metadata = load_metadata(_checkpoint_path(profile))
    except (OSError, json.JSONDecodeError):
        return None
    if not metadata or "clean_accuracy" not in metadata:
        return None
    if metadata.get("clean_accuracy_num_test") != profile.num_test:
        return None  # measured on a differently sized test set
    return float(metadata["clean_accuracy"])


#: Serialises :func:`prepare_checkpoint`: serve's queue threads may ask
#: for the same profile at once.
_CHECKPOINT_LOCK = threading.Lock()


def prepare_checkpoint(profile: ExperimentProfile) -> str:
    """Put ``profile``'s pre-trained checkpoint on disk, with its
    clean-accuracy metadata, and return its path.

    Worker processes load their bundles from it, so none of them pre-trains
    or measures the clean accuracy, and no two race to write that
    metadata.  A bundle is built only while :func:`cached_clean_accuracy`
    is ``None``, and a bundle the current context did not hold before is
    dropped again, so the caller is left holding no model.
    """
    checkpoint = _checkpoint_path(profile)
    with _CHECKPOINT_LOCK:
        if cached_clean_accuracy(profile) is not None:
            return checkpoint
        token = profile_token(profile)
        held = token in _bundle_cache()
        bundle = get_pretrained_bundle(profile)
        metadata = {
            "clean_accuracy": bundle.clean_accuracy,
            "clean_accuracy_num_test": bundle.profile.num_test,
        }
        if os.path.exists(checkpoint):
            update_checkpoint_metadata(checkpoint, metadata)
        else:
            from repro.utils.serialization import save_state

            state = dict(bundle.pretrained_snapshot) or bundle.model.state_dict()
            save_state(checkpoint, state, metadata={"profile": profile.name, **metadata})
        if not held:
            evict_bundle(token)
    return checkpoint


def evict_bundle(token: str) -> bool:
    """Drop one cached bundle by its profile token; ``True`` if it was cached.

    Lets bounded holders (a worker process's
    :class:`~repro.experiments.runner.executor.BundleCache`) actually free
    the model/data memory on eviction — popping only their own reference
    while the context's cache still pins the bundle would make every
    "eviction" a no-op.  The on-disk checkpoint is untouched, so a later
    :func:`get_pretrained_bundle` rebuilds cheaply.
    """
    return _bundle_cache().pop(token, None) is not None


def clear_bundle_cache() -> None:
    """Drop the current context's cached bundles (used by tests)."""
    _bundle_cache().clear()
