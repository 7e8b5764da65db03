"""The naive dual-WAL strawman (Section 5.3).

The paper considers -- and rejects -- this design before proposing the WAL
buffer: keep a *plaintext* primary WAL written synchronously (full
persistence) while a background thread re-writes the same records,
encrypted, into a secondary WAL.  When the log rotates, the plaintext
primary is deleted and the encrypted secondary becomes the durable copy.

It is implemented here so the rejection can be measured and demonstrated:

- throughput: double the WAL bytes plus background CPU;
- security: client data sits in plaintext on storage for the whole
  lifetime of the active log (the window the threat model forbids).

Use :class:`DualWALWriter` in place of ``WALWriter`` (tests and the
ablation benchmark wire it manually; the production engine never does).
"""

from __future__ import annotations

import queue
import threading

from repro.env.base import Env
from repro.lsm.filecrypto import FileCrypto, NULL_CRYPTO
from repro.lsm.wal import WALWriter

_STOP = object()


class DualWALWriter:
    """Plaintext primary + asynchronously encrypted secondary WAL."""

    def __init__(self, env: Env, path: str, crypto: FileCrypto):
        self.path = path
        self.primary = WALWriter(env, path + ".plain", NULL_CRYPTO)
        self.secondary = WALWriter(env, path, crypto)
        self._queue: queue.Queue = queue.Queue()
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()

    def _drain(self) -> None:
        while True:
            payload = self._queue.get()
            if payload is _STOP:
                return
            self.secondary.add_record(payload)

    def add_record(self, payload: bytes) -> None:
        # Synchronous, plaintext -- this is the persistence guarantee.
        self.primary.add_record(payload)
        # Asynchronous, encrypted -- this is the (eventual) at-rest copy.
        self._queue.put(payload)

    def sync(self) -> None:
        self.primary.sync()

    @property
    def encrypted_backlog(self) -> int:
        """Records accepted but not yet in the encrypted secondary."""
        return self._queue.qsize()

    def rotate(self, env: Env) -> None:
        """Log rotation: drop the plaintext primary, keep the secondary."""
        self.close()
        env.delete_file(self.path + ".plain")

    def close(self) -> None:
        self._queue.put(_STOP)
        self._worker.join(timeout=10)
        self.primary.close()
        self.secondary.close()

    def simulate_process_crash(self) -> None:
        """On a crash, recovery uses the plaintext primary for the active
        log (the design's correctness story -- and its security hole)."""
        self.primary.simulate_process_crash()
        self.secondary.simulate_process_crash()
