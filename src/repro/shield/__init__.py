"""SHIELD: encryption embedded in the LSM-KVS write path (Section 5).

The pieces, mapped to the paper:

- :class:`ShieldCryptoProvider` -- a fresh DEK from the KDS for every new
  WAL/SST/MANIFEST file and replication stream (one more log); DEK-IDs ride
  in the plaintext file envelope (and SST properties); input-file DEKs are
  retired when compaction deletes the file, so **DEK rotation is a side
  effect of compaction** (Section 5.2), and a stream's when it ends.
- the WAL buffer -- configured through ``ShieldOptions.wal_buffer_size`` and
  implemented inside :class:`repro.lsm.wal.WALWriter` (Section 5.3).
- chunked, optionally multi-threaded compaction encryption -- configured
  through ``Options.encryption_chunk_size`` / ``encryption_threads`` only
  (Section 5.2, Figure 13).
- the secure local DEK cache -- :class:`repro.keys.SecureDEKCache`, wired
  in through the :class:`repro.keys.KeyClient` (Section 5.2).

:func:`open_shield_db` assembles all of it around a stock
:class:`repro.lsm.DB`.
"""

from repro.shield.provider import ShieldCryptoProvider
from repro.shield.config import ShieldOptions, open_shield_db
from repro.shield.inspect import dek_inventory, rotation_report

__all__ = [
    "ShieldCryptoProvider",
    "ShieldOptions",
    "open_shield_db",
    "dek_inventory",
    "rotation_report",
]
