"""Suite-wide fixtures."""

import threading

import pytest
from hypothesis import settings

_SERVICE_THREADS = ("kv-", "shard-", "replica-")

#: ``--hypothesis-profile=soak``: the model's long budget (test_scan_model.py
#: reads ``max_examples`` from it); ``--hypothesis-seed=N`` replays a run.
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
