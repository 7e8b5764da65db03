"""Tests for FileMetadata, VersionEdit serialization, Version, VersionSet."""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro.env.mem import MemEnv
from repro.errors import RecoveryError
from repro.lsm.filecrypto import PlaintextCryptoProvider
from repro.lsm.version import FileMetadata, Version, VersionEdit, VersionSet


def _meta(number, smallest=b"a", largest=b"z", size=100):
    return FileMetadata(
        number=number,
        size=size,
        smallest=smallest,
        largest=largest,
        smallest_seq=1,
        largest_seq=10,
        num_entries=5,
        dek_id=f"dek-{number}",
    )


def test_file_metadata_overlaps():
    meta = _meta(1, b"c", b"f")
    assert meta.overlaps(b"a", b"d")
    assert meta.overlaps(b"d", b"e")
    assert meta.overlaps(b"f", b"z")
    assert not meta.overlaps(b"g", b"z")
    assert not meta.overlaps(b"a", b"b")
    assert meta.overlaps(None, None)
    assert meta.overlaps(None, b"c")
    assert meta.overlaps(b"f", None)


def test_version_edit_roundtrip():
    edit = VersionEdit(log_number=7, next_file_number=12, last_sequence=99)
    edit.add_file(0, _meta(3))
    edit.add_file(2, _meta(4, b"m", b"p"))
    edit.delete_file(1, 2)
    decoded = VersionEdit.decode(edit.encode())
    assert decoded.log_number == 7
    assert decoded.next_file_number == 12
    assert decoded.last_sequence == 99
    assert decoded.deleted_files == [(1, 2)]
    assert decoded.new_files == edit.new_files


def test_version_apply_add_delete():
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(0, _meta(1))
    edit.add_file(0, _meta(2))
    edit.add_file(1, _meta(3, b"a", b"m"))
    version = version.apply(edit)
    assert [m.number for m in version.levels[0]] == [2, 1]  # newest first
    assert version.num_files() == 3
    edit2 = VersionEdit()
    edit2.delete_file(0, 2)
    version = version.apply(edit2)
    assert [m.number for m in version.levels[0]] == [1]


def test_version_level1_sorted_by_key():
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(1, _meta(5, b"n", b"z"))
    edit.add_file(1, _meta(6, b"a", b"m"))
    version = version.apply(edit)
    assert [m.number for m in version.levels[1]] == [6, 5]


def test_candidates_for_key():
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(0, _meta(1, b"a", b"m"))
    edit.add_file(0, _meta(2, b"k", b"z"))
    edit.add_file(1, _meta(3, b"a", b"h"))
    edit.add_file(1, _meta(4, b"i", b"p"))
    version = version.apply(edit)
    candidates = version.candidates_for_key(b"l")
    numbers = [meta.number for __, meta in candidates]
    assert numbers == [2, 1, 4]  # L0 newest first, then the one L1 file
    assert [meta.number for __, meta in version.candidates_for_key(b"q")] == [2]


def _candidates_by_list_building(version, key):
    """candidates_for_key as it was written with a per-level key list."""
    candidates = [
        (0, meta) for meta in version.levels[0]
        if meta.smallest <= key <= meta.largest
    ]
    for level in range(1, len(version.levels)):
        files = version.levels[level]
        index = bisect.bisect_left([f.largest for f in files], key)
        if index < len(files) and files[index].smallest <= key:
            candidates.append((level, files[index]))
    return candidates


_keys = st.binary(min_size=0, max_size=2)


_trees = dict(
    l0=st.lists(st.tuples(_keys, _keys), max_size=4),
    bounds=st.lists(st.lists(_keys, max_size=12, unique=True), min_size=2, max_size=3),
    probes=st.lists(_keys, min_size=1, max_size=20),
)


def _version(l0, bounds):
    edit = VersionEdit()
    number = 0
    for a, b in l0:
        number += 1
        edit.add_file(0, _meta(number, min(a, b), max(a, b)))
    for level, keys in enumerate(bounds, start=1):
        keys = sorted(keys)
        # Disjoint files: consecutive pairs of the sorted, distinct bounds.
        for smallest, largest in zip(keys[0::2], keys[1::2]):
            number += 1
            edit.add_file(level, _meta(number, smallest, largest))
    return Version(7).apply(edit)


@given(**_trees)
def test_candidates_for_key_equals_the_list_building_form(l0, bounds, probes):
    version = _version(l0, bounds)
    for key in probes + [b for pair in l0 for b in pair] + sum(bounds, []):
        assert version.candidates_for_key(key) \
            == _candidates_by_list_building(version, key)


def _runs_by_linear_filter(version, start, end):
    """runs_for_range from the per-file filter every scanner used to run
    over ``all_files()``: L0 files one by one, deeper levels grouped."""
    def in_range(meta):
        return meta.largest >= start and (end is None or meta.smallest < end)

    runs = [[meta] for meta in version.levels[0] if in_range(meta)]
    for files in version.levels[1:]:
        if any(in_range(meta) for meta in files):
            runs.append([meta for meta in files if in_range(meta)])
    return runs


@given(**_trees)
def test_runs_for_range_equals_the_linear_filter(l0, bounds, probes):
    version = _version(l0, bounds)
    edges = probes + [b for pair in l0 for b in pair] + sum(bounds, [])
    for start in edges:
        for end in [None] + edges:
            runs = version.runs_for_range(start, end)
            assert runs == _runs_by_linear_filter(version, start, end)
            assert all(runs)  # no empty run: a run is a merge source


def test_overlapping_files():
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(1, _meta(1, b"a", b"f"))
    edit.add_file(1, _meta(2, b"g", b"m"))
    edit.add_file(1, _meta(3, b"n", b"z"))
    version = version.apply(edit)
    overlap = version.overlapping_files(1, b"e", b"h")
    assert [m.number for m in overlap] == [1, 2]


def test_version_set_manifest_roundtrip():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    versions = VersionSet(env, "/db", provider, 7)
    versions.log_number = 5
    versions.last_sequence = 42
    versions.create_manifest()
    edit = VersionEdit(last_sequence=100)
    edit.add_file(0, _meta(9, b"k1", b"k9"))
    versions.log_and_apply(edit)
    versions.close()

    recovered = VersionSet(env, "/db", provider, 7)
    recovered.recover()
    assert recovered.log_number == 5
    assert recovered.last_sequence == 100
    assert recovered.next_file_number > 9
    files = recovered.current.all_files()
    assert len(files) == 1
    assert files[0][1].number == 9
    assert files[0][1].dek_id == "dek-9"


def test_manifest_rotation_deletes_old():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    versions = VersionSet(env, "/db", provider, 7)
    versions.create_manifest()
    first_manifest = [n for n in env.list_dir("/db") if n.startswith("MANIFEST")]
    versions.create_manifest()
    second_manifest = [n for n in env.list_dir("/db") if n.startswith("MANIFEST")]
    assert len(second_manifest) == 1
    assert first_manifest != second_manifest
    current = env.read_file("/db/CURRENT").decode().strip()
    assert current == second_manifest[0]


def test_recover_missing_manifest_raises():
    env = MemEnv()
    env.write_file("/db/CURRENT", b"MANIFEST-000099\n")
    versions = VersionSet(env, "/db", PlaintextCryptoProvider(), 7)
    with pytest.raises(RecoveryError):
        versions.recover()
