"""Open-time freshness verification against the trusted counter."""

from __future__ import annotations

from repro.errors import RollbackError
from repro.integrity.counter import TrustedCounter

#: Dispositions :func:`verify` and :func:`verify_and_advance` return.
FRESH = "fresh"
INITIALIZED = "initialized"
TORN_RECOVERED = "torn-recovered"


def verify(counter: TrustedCounter, root: bytes) -> str:
    """Classify a recovered store's Merkle ``root`` against ``counter``
    without touching it -- all a non-writer may do, and the writer's first
    half:

    - counter never used -> nothing is anchored yet (``initialized``);
    - root matches the counter's current root -> ``fresh``;
    - root matches the counter's *previous* root -> the last advance's
      manifest write has not landed: counter-first ordering's torn window,
      seen after a crash or beside a live writer (``torn-recovered``);
    - anything else is a replayed old snapshot: ``RollbackError``.
    """
    state = counter.read()
    if state is None:
        return INITIALIZED
    if root == state.root:
        return FRESH
    if root == state.prev_root:
        return TORN_RECOVERED
    raise RollbackError(
        f"store root {root.hex()[:16]}... does not match trusted counter "
        f"value {state.value} (root {state.root.hex()[:16]}...): the "
        "on-storage state is older than the last trusted checkpoint"
    )


def verify_and_advance(counter: TrustedCounter, root: bytes) -> str:
    """The writer's open: :func:`verify`, then bind a never-used counter to
    this store, or re-anchor it after a torn update, by advancing."""
    disposition = verify(counter, root)
    if disposition != FRESH:
        counter.advance(root)
    return disposition
