"""Named sync points (RocksDB's ``SyncPoint`` idea, pythonized).

Instrumented code *declares* a point at import time and *processes* it at
runtime::

    POINT = SYNC.declare("db.flush:after_sst_write", "SST durable, "
                         "manifest edit not yet applied")
    ...
    SYNC.process(POINT)

Tests enable the registry, attach a callback to a point, and the callback
runs inline on the thread that hit it -- it may pause (wait on an event),
snapshot the env (a crash rule's move: capture the would-be
on-disk state at exactly this point), or raise to abort the operation.

Disabled (the default and the production state) ``process`` is a single
attribute check; no lock, no dict lookup.  Declaration is what lets the
crash rule *enumerate* every point in the codebase instead of trusting
a hand-maintained list.
"""

from __future__ import annotations

import threading


class SyncPoints:
    """Process-wide registry of named execution points."""

    def __init__(self):
        self._lock = threading.Lock()
        self._enabled = False
        self._declared: dict[str, str] = {}
        self._callbacks: dict[str, object] = {}
        self._hits: dict[str, int] = {}

    # -- declaration (import time) -----------------------------------------

    def declare(self, name: str, description: str = "") -> str:
        """Register a point name; idempotent; returns the name for reuse."""
        with self._lock:
            self._declared.setdefault(name, description)
        return name

    def declared(self) -> list[str]:
        """Every declared point name, sorted (what a crash rule draws from)."""
        with self._lock:
            return sorted(self._declared)

    def describe(self, name: str) -> str:
        with self._lock:
            return self._declared.get(name, "")

    # -- activation (test time) --------------------------------------------

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_callback(self, name: str, callback) -> None:
        """Attach ``callback()`` to run inline whenever ``name`` is hit."""
        with self._lock:
            self._callbacks[name] = callback

    def clear_callback(self, name: str) -> None:
        with self._lock:
            self._callbacks.pop(name, None)

    def clear(self) -> None:
        """Remove every callback, zero hit counts, and disable."""
        self._enabled = False
        with self._lock:
            self._callbacks.clear()
            self._hits.clear()

    def hits(self, name: str) -> int:
        with self._lock:
            return self._hits.get(name, 0)

    # -- the hot path --------------------------------------------------------

    def process(self, name: str) -> None:
        """Run the point's callback, if enabled and one is attached.

        A callback exception propagates to the instrumented code -- that
        is the injection mechanism for "this operation dies right here".
        """
        if not self._enabled:
            return
        with self._lock:
            self._hits[name] = self._hits.get(name, 0) + 1
            callback = self._callbacks.get(name)
        if callback is not None:
            callback()


#: The process-wide registry every instrumented layer shares.
SYNC = SyncPoints()
