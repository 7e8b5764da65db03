"""Internal key/value record types shared across the engine."""

from __future__ import annotations

# Value types (stored in WAL records, memtables, and SST entries).
TYPE_DELETE = 0
TYPE_PUT = 1

MAX_SEQUENCE = (1 << 56) - 1

