"""A kill at every declared sync point, under both at-rest schemes.

Each case runs the model's ``crash_at`` rule (``tests/test_scan_model.py``)
on a small tree: the first hit of the point takes the crash image and kills
the operation, the store reopens over the image, and the rule checks the
recovery -- no acked write lost, no delete undone, no torn batch, a clean
DEK audit (every file readable and sealed, no key/nonce pair or DEK
shared, every DEK known to the crash-instant KDS), at most
``MAX_LEAKED_DEKS`` DEKs stranded.  The unsuffixed id is shake-ctr.
"""

import pytest

from repro.util.syncpoint import SYNC
from tests.test_scan_model import ALL_KEYS, CRASH_POINTS, MAX_LEAKED_DEKS, booted

SCHEMES = ("shake-ctr", "shake-etm")


def test_matrix_covers_every_declared_point():
    """A new sync point in the engine must automatically join the matrix."""
    assert CRASH_POINTS == SYNC.declared()
    assert len(CRASH_POINTS) >= 11
    kinds = {name.split(":")[0] for name in CRASH_POINTS}
    assert {"flush", "compaction", "manifest", "wal", "dek"} <= kinds


def crash(scheme, point):
    """Grow a tree (live keys, deleted keys, files on two levels, a WAL
    still to replay), then kill the engine at ``point``; returns the model
    after its recovery, which must also keep what it is written next (its
    own WAL is intact)."""
    with booted(scheme, adaptive=point.startswith("controller:")) as model:
        assert model.reaches(point)
        model.write([(key, b"v0-" + key) for key in ALL_KEYS[:30]])
        model.flush("picker")
        model.write([(key, None) for key in ALL_KEYS[:15]])
        model.write([(key, b"v1-" + key) for key in ALL_KEYS[30:]])
        model.flush("picker")
        model.write([(key, None) for key in ALL_KEYS[30:35]])
        model.crash_at(point)
        model.put(ALL_KEYS[0], b"after the crash")
        model.reopen()
        model.gets_agree_with_the_oracle(ALL_KEYS, snapshot=None)
        return model


@pytest.mark.parametrize("point, scheme", [
    pytest.param(
        point, scheme, id=point if scheme == "shake-ctr" else f"{point}-{scheme}"
    )
    for point in CRASH_POINTS for scheme in SCHEMES
])
def test_crash_at_point_recovers_cleanly(point, scheme):
    model = crash(scheme, point)
    assert model.leaked_by_last_crash <= MAX_LEAKED_DEKS


def test_dek_before_retire_is_the_leak_window():
    """Killing between file deletion and DEK retirement is the one place
    a DEK may outlive its file -- the window dek_audit exists to catch."""
    for scheme in SCHEMES:
        assert crash(scheme, "dek:before_retire").leaked_by_last_crash >= 1
