"""Per-operation-class cost attribution: where did the time actually go?

The paper's evaluation decomposes every latency figure into encryption
work, KDS round-trips, and I/O (Fig. 4, Fig. 16, Table 3).  This module
is the seam that reproduces that decomposition: instrumented layers call
:func:`charge` with a category and a duration, and whatever
:class:`CostBreakdown` is active on the calling thread accumulates it
under the current *op class* (``read``, ``update``, ``scan`` ... as set
by the workload driver).

With no breakdown active -- the normal serving path -- ``charge`` is one
thread-local read and a ``None`` check.

Categories charged by the instrumented layers:

- ``encrypt_init``  cipher-context construction (the per-op EVP-init cost)
- ``encrypt``       bulk keystream/XOR work (with byte counts)
- ``kds``           KDS round-trips through ``KeyClient``
- ``io``            Env read/append/sync time (via ``MeteredEnv``)
"""

from __future__ import annotations

import threading

#: Categories always present (zero-filled) in a breakdown's dict form.
CORE_CATEGORIES = ("encrypt", "encrypt_init", "kds", "io")


class _Slot(threading.local):
    #: (breakdown, op class) while one is collecting on this thread.  A class
    #: default, so the idle check in charge() finds it without a failed
    #: lookup: every cipher call and metered I/O makes that check.
    slot = None


_local = _Slot()


class CostBreakdown:
    """Accumulated seconds (and bytes) per (op class, category)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._data: dict[str, dict[str, float]] = {}

    def add(
        self, op_class: str, category: str, seconds: float, nbytes: int = 0
    ) -> None:
        with self._lock:
            slot = self._data.setdefault(op_class, {})
            key = f"{category}_seconds"
            slot[key] = slot.get(key, 0.0) + seconds
            if nbytes:
                bkey = f"{category}_bytes"
                slot[bkey] = slot.get(bkey, 0) + nbytes

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Per-op-class mapping with the core categories zero-filled."""
        with self._lock:
            out = {
                op_class: dict(values) for op_class, values in self._data.items()
            }
        for values in out.values():
            for category in CORE_CATEGORIES:
                values.setdefault(f"{category}_seconds", 0.0)
        return out

    def total(self, category: str) -> float:
        """Summed seconds for one category across every op class."""
        with self._lock:
            return sum(
                values.get(f"{category}_seconds", 0.0)
                for values in self._data.values()
            )


class _Collect:
    """Context manager activating a breakdown on the current thread."""

    __slots__ = ("breakdown", "op_class", "_prev")

    def __init__(self, breakdown: CostBreakdown, op_class: str):
        self.breakdown = breakdown
        self.op_class = op_class

    def __enter__(self) -> CostBreakdown:
        self._prev = _local.slot
        _local.slot = (self.breakdown, self.op_class)
        return self.breakdown

    def __exit__(self, *exc_info) -> bool:
        _local.slot = self._prev
        return False


class _OpClass:
    """Context manager retargeting the active breakdown's op class."""

    __slots__ = ("name", "_prev")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> "_OpClass":
        self._prev = _local.slot
        if self._prev is not None:
            _local.slot = (self._prev[0], self.name)
        return self

    def __exit__(self, *exc_info) -> bool:
        _local.slot = self._prev
        return False


def collect(op_class: str = "all") -> _Collect:
    """``with costs.collect() as breakdown:`` -- attribute this thread's work."""
    return _Collect(CostBreakdown(), op_class)


def attribute(breakdown: CostBreakdown, op_class: str = "all") -> _Collect:
    """Activate an existing breakdown (several runs can share one)."""
    return _Collect(breakdown, op_class)


def op_class(name: str) -> _OpClass:
    """Switch the active op class (no-op when nothing is collecting)."""
    return _OpClass(name)


def active() -> bool:
    """True when the calling thread has a breakdown collecting."""
    return _local.slot is not None


def charge(category: str, seconds: float, nbytes: int = 0) -> None:
    """Attribute work to the active breakdown; a no-op when none is."""
    slot = _local.slot
    if slot is None:
        return
    breakdown, current_class = slot
    breakdown.add(current_class, category, seconds, nbytes)
