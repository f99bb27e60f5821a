"""Guard on the identity of every registered scenario.

Spec hashes key the result store and seed every scenario, so a refactor of
how grids are built or how engines are resolved must not move a single one.
The count and the digest below were measured before the engine-resolution
rule lost its environment override; any change to either means a stored
result would no longer be found.
"""

from __future__ import annotations

import hashlib

from repro.experiments.registry import registered_spec_hashes

#: Distinct spec hashes the registered grids produce over every profile and
#: engine pin.
REGISTERED_SPEC_COUNT = 327

#: First 16 hex digits of the SHA-256 of the sorted hashes, newline-joined.
REGISTERED_SPEC_DIGEST = "f2a5b2a7bc03de0f"


def test_registered_spec_hashes_are_pinned():
    hashes = registered_spec_hashes()
    assert len(hashes) == REGISTERED_SPEC_COUNT
    digest = hashlib.sha256("\n".join(sorted(hashes)).encode("utf-8")).hexdigest()
    assert digest[:16] == REGISTERED_SPEC_DIGEST
