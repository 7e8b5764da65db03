"""SHIELD++ integrity: Merkle freshness anchors and trusted counters.

Authenticated encryption (AEAD schemes in :mod:`repro.crypto.cipher`)
makes every persisted byte tamper-evident, but tags alone cannot stop a
*rollback*: an attacker who restores yesterday's individually-valid files
presents a store that verifies perfectly.  This package adds the missing
piece -- a Merkle root over the live SSTs and named WALs, checkpointed by
:class:`FreshnessAnchor` to a trusted counter the adversary cannot rewind.
"""

from repro.integrity.counter import (
    CounterState,
    FileTrustedCounter,
    MemoryTrustedCounter,
    TrustedCounter,
)
from repro.integrity.freshness import (
    FRESH,
    INITIALIZED,
    TORN_RECOVERED,
    FreshnessAnchor,
)
from repro.integrity.merkle import EMPTY_ROOT, ROOT_SIZE, leaf_hash, merkle_root

__all__ = [
    "CounterState",
    "EMPTY_ROOT",
    "FileTrustedCounter",
    "FRESH",
    "FreshnessAnchor",
    "INITIALIZED",
    "MemoryTrustedCounter",
    "ROOT_SIZE",
    "TORN_RECOVERED",
    "TrustedCounter",
    "leaf_hash",
    "merkle_root",
]
