"""Tests for the leveled / universal / FIFO compaction pickers."""

from repro.lsm.compaction import (
    FIFOPicker,
    LeveledPicker,
    UniversalPicker,
    make_picker,
)
from repro.lsm.options import Options
from repro.lsm.version import FileMetadata, Version, VersionEdit


def _meta(number, smallest=b"a", largest=b"z", size=100):
    return FileMetadata(
        number=number, size=size, smallest=smallest, largest=largest,
        smallest_seq=1, largest_seq=10, num_entries=5,
    )


def _version(l0=(), l1=(), num_levels=7):
    version = Version(num_levels)
    edit = VersionEdit()
    for meta in l0:
        edit.add_file(0, meta)
    for meta in l1:
        edit.add_file(1, meta)
    return version.apply(edit)


def test_make_picker_styles():
    assert isinstance(make_picker(Options(compaction_style="leveled")), LeveledPicker)
    assert isinstance(
        make_picker(Options(compaction_style="universal")), UniversalPicker
    )
    assert isinstance(make_picker(Options(compaction_style="fifo")), FIFOPicker)


def test_leveled_no_work_below_trigger():
    picker = LeveledPicker(Options(level0_file_num_compaction_trigger=4))
    version = _version(l0=[_meta(1), _meta(2), _meta(3)])
    assert picker.pick(version, set()) is None


def test_leveled_l0_trigger():
    picker = LeveledPicker(Options(level0_file_num_compaction_trigger=4))
    l0 = [_meta(i) for i in range(1, 5)]
    version = _version(l0=l0)
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 1
    assert job.input_numbers() == {1, 2, 3, 4}
    assert job.bottommost  # nothing below L1


def test_leveled_includes_l1_overlap():
    picker = LeveledPicker(Options(level0_file_num_compaction_trigger=2))
    l0 = [_meta(10, b"c", b"h"), _meta(11, b"e", b"k")]
    l1 = [_meta(5, b"a", b"d"), _meta(6, b"i", b"m"), _meta(7, b"n", b"z")]
    version = _version(l0=l0, l1=l1)
    job = picker.pick(version, set())
    assert job.input_numbers() == {10, 11, 5, 6}
    assert 7 not in job.input_numbers()


def test_leveled_respects_in_flight_compaction():
    picker = LeveledPicker(Options(level0_file_num_compaction_trigger=2))
    l0 = [_meta(1), _meta(2), _meta(3)]
    version = _version(l0=l0)
    job = picker.pick(version, compacting={1, 2, 3})
    assert job is None


def test_leveled_size_trigger_on_l1():
    options = Options(
        level0_file_num_compaction_trigger=100,  # keep L0 quiet
        max_bytes_for_level_base=1000,
    )
    picker = LeveledPicker(options)
    l1 = [
        _meta(1, b"a", b"f", size=700),
        _meta(2, b"g", b"m", size=700),
    ]
    version = _version(l1=l1)
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 2
    assert job.input_numbers() == {1}  # oldest file first


def test_leveled_not_bottommost_with_data_below():
    options = Options(level0_file_num_compaction_trigger=2)
    picker = LeveledPicker(options)
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(0, _meta(10, b"a", b"z"))
    edit.add_file(0, _meta(11, b"a", b"z"))
    edit.add_file(2, _meta(1, b"a", b"z"))
    version = version.apply(edit)
    job = picker.pick(version, set())
    assert job.output_level == 1
    assert not job.bottommost


def test_universal_trigger_on_run_count():
    options = Options(compaction_style="universal", universal_max_sorted_runs=3)
    picker = UniversalPicker(options)
    version = _version(l0=[_meta(i) for i in range(1, 4)])
    assert picker.pick(version, set()) is None
    version = _version(l0=[_meta(i) for i in range(1, 5)])
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 0
    assert len(job.input_files()) == 4
    assert job.bottommost


def _universal_options(**overrides):
    defaults = dict(
        compaction_style="universal",
        universal_max_sorted_runs=3,
        universal_size_ratio=25,
        universal_min_merge_width=2,
    )
    defaults.update(overrides)
    return Options(**defaults)


def _runs_version(sizes):
    """Build L0 runs newest-first with the given sizes."""
    version = Version(7)
    edit = VersionEdit()
    for index, size in enumerate(sizes):
        # Higher number + higher seq = newer; apply() sorts newest first.
        edit.add_file(
            0,
            FileMetadata(
                number=index + 1, size=size, smallest=b"a", largest=b"z",
                smallest_seq=index * 10 + 1, largest_seq=index * 10 + 9,
                num_entries=5,
            ),
        )
    return version.apply(edit)


def test_universal_size_ratio_merges_similar_runs():
    picker = UniversalPicker(_universal_options())
    # Newest-first sizes after apply(): 100, 90, 95, 5000 -- the first three
    # are within 25% of the accumulated window; the big old run is not.
    version = _runs_version([5000, 95, 90, 100])
    job = picker.pick(version, set())
    assert job is not None
    sizes = sorted(meta.size for __, meta in job.input_files())
    assert sizes == [90, 95, 100]
    assert not job.bottommost  # the 5000-byte run stayed behind


def test_universal_size_ratio_falls_back_to_count_cap():
    picker = UniversalPicker(_universal_options())
    # Newest-first: 10, 5000, 4000, 3000 -- ratio admits no window beyond
    # the first run, so merge enough newest runs to respect the cap.
    version = _runs_version([3000, 4000, 5000, 10])
    job = picker.pick(version, set())
    assert job is not None
    assert len(job.input_files()) == 2  # count 4 -> cap 3 needs one merge


def test_universal_full_merge_when_ratio_disabled():
    picker = UniversalPicker(_universal_options(universal_size_ratio=None))
    version = _runs_version([100, 200, 300, 400])
    job = picker.pick(version, set())
    assert len(job.input_files()) == 4
    assert job.bottommost


def test_universal_waits_for_inflight_job():
    picker = UniversalPicker(_universal_options())
    version = _runs_version([100, 100, 100, 100])
    assert picker.pick(version, compacting={2}) is None


def test_universal_size_ratio_end_to_end():
    from repro.lsm.db import DB
    from repro.env.mem import MemEnv

    options = Options(
        env=MemEnv(),
        compaction_style="universal",
        universal_max_sorted_runs=3,
        universal_size_ratio=50,
        write_buffer_size=4 * 1024,
        block_size=1024,
    )
    with DB("/u", options) as db:
        for i in range(3000):
            db.put(b"key-%05d" % (i % 500), b"v" * 40)
        db.compact_range()
        for i in range(500):
            assert db.get(b"key-%05d" % i) == b"v" * 40
        assert db.num_files_at_level(0) <= 4


def test_fifo_deletes_oldest_over_cap():
    options = Options(compaction_style="fifo", fifo_max_table_files_size=250)
    picker = FIFOPicker(options)
    version = _version(l0=[_meta(i, size=100) for i in range(1, 5)])  # 400 bytes
    job = picker.pick(version, set())
    assert job is not None
    assert job.delete_only
    # Needs to delete the two oldest files to get to <= 250.
    assert job.input_numbers() == {1, 2}


def test_fifo_under_cap_no_work():
    options = Options(compaction_style="fifo", fifo_max_table_files_size=1000)
    picker = FIFOPicker(options)
    version = _version(l0=[_meta(1), _meta(2)])
    assert picker.pick(version, set()) is None


# ----------------------------------------------------------------------
# Rule scores, and the lazy-leveled policy.
# ----------------------------------------------------------------------

from repro.lsm.compaction import LazyLeveledPicker, worst_level  # noqa: E402


def _score(picker, version, rule=0):
    """The score of the picker's ``rule``-th rule (None: not fired)."""
    return picker.rules(version, set())[rule][0]


def test_trigger_scores():
    version = _version(l0=[_meta(i) for i in range(1, 5)])
    options = Options(level0_file_num_compaction_trigger=4)
    assert _score(LeveledPicker(options), version) == 1.0
    options = Options(level0_file_num_compaction_trigger=8)
    assert _score(LeveledPicker(options), version) is None
    # Run-count trigger fires strictly above the cap.
    options = Options(universal_max_sorted_runs=4)
    assert _score(UniversalPicker(options), version) is None
    options = Options(universal_max_sorted_runs=3)
    assert _score(UniversalPicker(options), version) > 1.0


def test_level_size_trigger_picks_worst_level():
    options = Options(max_bytes_for_level_base=1000, fanout=10)
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(1, _meta(1, b"a", b"c", size=1500))     # score 1.5
    edit.add_file(2, _meta(2, b"d", b"f", size=30000))    # score 3.0
    version = version.apply(edit)
    score, level = worst_level(options, version, set())
    assert level == 2
    assert score == 3.0
    assert _score(LeveledPicker(options), version, rule=1) == 3.0


def test_l0_bytes_trigger():
    options = Options(max_bytes_for_level_base=1000)
    version = _version(l0=[_meta(1, size=600), _meta(2, size=600)])
    assert _score(LazyLeveledPicker(options), version) == 1.2
    version = _version(l0=[_meta(1, size=100)])
    assert _score(LazyLeveledPicker(options), version) is None


def test_lazy_leveled_tiers_small_l0():
    options = Options(
        compaction_style="lazy-leveled",
        universal_max_sorted_runs=3,
        max_bytes_for_level_base=1_000_000,  # spill far away
    )
    picker = LazyLeveledPicker(options)
    version = _version(l0=[_meta(i, size=100) for i in range(1, 5)])
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 0           # tier merge within L0
    assert len(job.input_files()) == 4
    assert job.bottommost                  # nothing below yet


def test_lazy_leveled_spills_to_l1_when_l0_outgrows_budget():
    options = Options(
        compaction_style="lazy-leveled",
        universal_max_sorted_runs=8,
        max_bytes_for_level_base=1000,
    )
    picker = LazyLeveledPicker(options)
    l1 = [_meta(9, b"a", b"m", size=100)]
    version = _version(
        l0=[_meta(i, b"a", b"z", size=600) for i in range(1, 3)], l1=l1
    )
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 1
    assert job.input_numbers() == {1, 2, 9}  # L0 runs + overlapping L1 file


def test_lazy_leveled_tier_merge_above_l1_is_not_bottommost():
    options = Options(
        compaction_style="lazy-leveled",
        universal_max_sorted_runs=3,
        max_bytes_for_level_base=1_000_000,
    )
    picker = LazyLeveledPicker(options)
    version = _version(
        l0=[_meta(i, b"a", b"z", size=10) for i in range(1, 5)],
        l1=[_meta(9, b"a", b"m", size=100)],
    )
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 0
    assert not job.bottommost  # L1 holds older versions of these keys


def test_lazy_leveled_levels_the_bottom():
    options = Options(
        compaction_style="lazy-leveled",
        universal_max_sorted_runs=8,
        max_bytes_for_level_base=1000,
        fanout=2,
    )
    picker = LazyLeveledPicker(options)
    # Quiet L0, oversized L1 -> classic leveled size compaction L1 -> L2.
    version = _version(l1=[_meta(1, b"a", b"f", size=5000)])
    job = picker.pick(version, set())
    assert job is not None
    assert job.output_level == 2
    assert job.input_numbers() == {1}


def test_make_picker_lazy_leveled():
    picker = make_picker(Options(compaction_style="lazy-leveled"))
    assert isinstance(picker, LazyLeveledPicker)


def test_leveled_blocked_l0_falls_through_to_level_rule():
    """The picker tries the next-best rule when the best one's job is
    blocked by an in-flight job."""
    options = Options(
        level0_file_num_compaction_trigger=2, max_bytes_for_level_base=1000
    )
    picker = LeveledPicker(options)
    version = Version(7)
    edit = VersionEdit()
    edit.add_file(0, _meta(10, b"a", b"c"))
    edit.add_file(0, _meta(11, b"d", b"f"))
    edit.add_file(0, _meta(12, b"g", b"i"))
    edit.add_file(1, _meta(1, b"a", b"c", size=5000))
    edit.add_file(1, _meta(2, b"n", b"z", size=5000))
    version = version.apply(edit)
    # One L0 file is mid-compaction: the L0 lane must wait, but the
    # oversized-L1 lane can still make progress on a disjoint file.
    job = picker.pick(version, compacting={10})
    assert job is not None
    assert job.output_level == 2
    assert 10 not in job.input_numbers()
