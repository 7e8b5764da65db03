"""The freshness anchor: the one object between a store and its counter.

The counter holds ``root ‖ floor``: the Merkle root of the MANIFEST's live
SSTs and named WALs, then -- once a synced group moved it -- ``(active WAL
number, synced length)``; a bare 32-byte root (as written before WALs were
named) has no floor.  An edit advances the counter *first*: a crash between
the two leaves storage at ``prev_root`` (so a rollback of exactly the last
transition looks torn).  The floor moves *after* its WAL's fsync.
"""

from __future__ import annotations

from repro.errors import RollbackError
from repro.integrity.merkle import ROOT_SIZE, merkle_root
from repro.util.coding import decode_varint64, encode_varint64
from repro.util.syncpoint import SYNC

#: Dispositions :meth:`FreshnessAnchor.verify` returns.
FRESH = "fresh"
INITIALIZED = "initialized"
TORN_RECOVERED = "torn-recovered"

SP_COUNTER_BEFORE_PERSIST = SYNC.declare(
    "counter:before_persist", "new Merkle root computed, counter not yet advanced"
)
SP_COUNTER_AFTER_PERSIST = SYNC.declare(
    "counter:after_persist", "counter one step ahead, manifest record not written"
)


def _floor(anchored: bytes) -> tuple[int, int] | None:
    if len(anchored) <= ROOT_SIZE:
        return None
    number, pos = decode_varint64(anchored, ROOT_SIZE)
    return number, decode_varint64(anchored, pos)[0]


class FreshnessAnchor:
    """Owns the counter (None: unanchored), the cached root and floor, and
    the ``integrity.freshness_*`` stats."""

    def __init__(self, counter, stats=None):
        self._counter, self._stats = counter, stats
        self._root: bytes | None = None
        self._floor: tuple[int, int] | None = None

    def verify(self, version) -> str | None:
        """Classify a recovered ``version``'s root, writing nothing: an unused
        counter is ``initialized``; its current root ``fresh``; its previous
        root ``torn-recovered`` (a MANIFEST record not yet landed, after a
        crash or beside a live writer); else ``RollbackError``.  The matched
        state's floor is :meth:`floor`'s; a writer's next edit re-anchors."""
        if self._counter is None:
            return None
        root, state = merkle_root(version), self._counter.read()
        self._root, self._floor = None, None
        if state is None:
            disposition = INITIALIZED
        elif state.root[:ROOT_SIZE] == root:
            disposition, self._root, self._floor = FRESH, root, _floor(state.root)
        elif state.prev_root[:ROOT_SIZE] == root:
            disposition, self._floor = TORN_RECOVERED, _floor(state.prev_root)
        else:
            raise RollbackError(
                f"store root {root.hex()[:16]}... is older than trusted counter"
                f" value {state.value} (root {state.root.hex()[:16]}...)"
            )
        if self._stats is not None:
            self._stats.counter("integrity.freshness_checks").add(1)
            if disposition == TORN_RECOVERED:
                self._stats.counter("integrity.torn_recoveries").add(1)
            self._stats.gauge("integrity.counter_value").set(state.value if state else 0)
        return disposition

    def floor(self, wal_number: int) -> int:
        """The synced bytes of WAL ``wal_number`` the counter anchors."""
        return self._floor[1] if self._floor and self._floor[0] == wal_number else 0

    def advance(self, version) -> None:
        """Counter first: bind ``version``'s root before its MANIFEST record
        lands; nothing to write when the root did not change."""
        if self._counter is None:
            return
        root = merkle_root(version)
        if root != self._root:
            SYNC.process(SP_COUNTER_BEFORE_PERSIST)
            self._write(root, self._floor)
            SYNC.process(SP_COUNTER_AFTER_PERSIST)

    def synced(self, wal_number: int, length: int) -> None:
        """Sync first: one counter write carries the new floor."""
        if self._root is not None and (wal_number, length) != self._floor:
            self._write(self._root, (wal_number, length))

    def forget(self) -> None:
        """A MANIFEST record failed: no floor moves until an edit lands."""
        self._root = None

    def _write(self, root: bytes, floor: tuple[int, int] | None) -> None:
        anchored = root
        if floor is not None:
            anchored += encode_varint64(floor[0]) + encode_varint64(floor[1])
        state = self._counter.advance(anchored)
        self._root, self._floor = root, floor
        if self._stats is not None:
            self._stats.counter("integrity.freshness_advances").add(1)
            self._stats.gauge("integrity.counter_value").set(state.value)
