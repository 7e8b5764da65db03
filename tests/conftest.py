"""Suite-wide fixtures."""

import hashlib
import os
import sys
import threading
import types

import pytest
from hypothesis import settings

from repro.crypto import xof

_SERVICE_THREADS = ("kv-", "shard-", "replica-")

#: The figure library, ``benchmarks/paper.py``: the bench-workload, harness,
#: trace and property tests import it as ``paper``.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
)

#: ``--hypothesis-profile=soak``: the long budget (test_scan_model.py and
#: test_block.py read ``max_examples`` from it); ``--hypothesis-seed=N``
#: replays a run.
settings.register_profile("soak", max_examples=1000)


@pytest.fixture(autouse=True)
def no_service_thread_outlives_its_server(request):
    """``stop()`` joins what ``start()`` started: after a ``test_service_*``
    test, no serving-tier thread is left.  (The one second is for the test
    that wedges a worker on purpose and releases it after ``stop()``.)"""
    yield
    if not request.path.name.startswith("test_service_"):
        return
    leaked = [
        thread for thread in threading.enumerate()
        if thread.name.startswith(_SERVICE_THREADS)
    ]
    for thread in leaked:
        thread.join(1.0)
    assert [thread.name for thread in leaked if thread.is_alive()] == []


class _SpyShake:
    """A SHAKE-256 state that records the length of every squeeze."""

    def __init__(self, state, squeezed):
        self._state, self._squeezed = state, squeezed

    def update(self, data):
        self._state.update(data)

    def copy(self):
        return _SpyShake(self._state.copy(), self._squeezed)

    def digest(self, length):
        self._squeezed.append(length)
        return self._state.digest(length)


@pytest.fixture
def squeezed(monkeypatch):
    """Every ``digest`` length the shake-ctr cipher asks for."""
    lengths = []
    spy = types.SimpleNamespace(
        shake_256=lambda data=b"": _SpyShake(hashlib.shake_256(data), lengths)
    )
    monkeypatch.setattr(xof, "hashlib", spy)
    return lengths
