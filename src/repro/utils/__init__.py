"""Shared utilities: seeding, logging and serialization."""

from repro.utils.seed import seed_everything
from repro.utils.logging import get_logger
from repro.utils.serialization import save_state, load_state

__all__ = [
    "seed_everything",
    "get_logger",
    "save_state",
    "load_state",
]
