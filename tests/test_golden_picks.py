"""Golden compaction picks: what each policy compacts, pinned by digest.

A seeded generator builds random trees -- all four compaction styles, 3 to 6
levels, overlapping L0 runs, sorted non-overlapping files below, random
in-flight sets, ``universal_size_ratio`` in {None, 0, 25, 100}, FIFO TTL on
and off -- and asks ``make_picker(options).pick(version, compacting)`` for
each.  Every pick is reduced to (input file numbers per level in order,
output level, ``delete_only``, ``bottommost``), or None, and the lines are
hashed.

``GOLDEN_PICKS`` was recorded by running ``pick_digest()`` against the
trigger x layout pickers (``ComposedPicker`` with its ``Rule`` lists) that
the four ``Picker`` subclasses replaced; the subclasses reproduce it
exactly.  A change that moves any pick changes the digest: a deliberate
one re-records it and says why.
"""

import hashlib
import random

from repro.lsm.compaction import make_picker
from repro.lsm.options import Options
from repro.lsm.version import FileMetadata, Version, VersionEdit
from repro.util.clock import VirtualClock

STYLES = ("leveled", "universal", "lazy-leveled", "fifo")
TREES = 12_000
NOW = 100.0

GOLDEN_PICKS = "56995056f6063687f95fe131c7f67a2c94c93b9a47ada57294b05e1e44917f0c"


def _files(rng, count, next_number, level):
    """``count`` files; below L0 they are sorted and never overlap."""
    if level == 0:
        spans = [sorted(rng.sample(range(200), 2)) for __ in range(count)]
    else:
        points = sorted(rng.sample(range(200), 2 * count))
        spans = [points[i:i + 2] for i in range(0, 2 * count, 2)]
    files = []
    for low, high in spans:
        number = next_number + len(files)
        files.append(FileMetadata(
            number=number,
            size=rng.choice((1, 50, 100, 300, 700, 1500, 4000)),
            smallest=b"k%03d" % low,
            largest=b"k%03d" % high,
            smallest_seq=number * 10,
            largest_seq=number * 10 + rng.randrange(10),
            num_entries=5,
            created_at=rng.choice((0.0, NOW - 30.0, rng.uniform(0.0, NOW))),
        ))
    return files


def random_case(rng, style):
    """(options, version, compacting) for one random tree."""
    num_levels = rng.randint(3, 6)
    options = Options(
        compaction_style=style,
        num_levels=num_levels,
        fanout=rng.choice((2, 4, 10)),
        level0_file_num_compaction_trigger=rng.randint(1, 6),
        max_bytes_for_level_base=rng.choice((500, 1000, 3000)),
        universal_max_sorted_runs=rng.randint(1, 6),
        universal_min_merge_width=rng.randint(2, 4),
        universal_size_ratio=rng.choice((None, 0, 25, 100)),
        fifo_max_table_files_size=rng.choice((300, 1000, 5000)),
        fifo_ttl_seconds=rng.choice((0.0, 30.0)),
        clock=VirtualClock(NOW),
    )
    edit = VersionEdit()
    number = 1
    for level in range(num_levels):
        if level and style in ("universal", "fifo") and rng.random() < 0.8:
            continue  # these styles keep every run in L0, bar a full merge
        count = rng.randint(0, 8 if level == 0 else 5)
        for meta in _files(rng, count, number, level):
            edit.add_file(level, meta)
        number += count
    version = Version(num_levels).apply(edit)
    numbers = [meta.number for __, meta in version.all_files()]
    compacting = set()
    if numbers and rng.random() < 0.4:
        compacting = set(rng.sample(numbers, rng.randint(1, min(3, len(numbers)))))
    return options, version, compacting


def describe(job):
    if job is None:
        return "None"
    inputs = sorted(
        (level, [meta.number for meta in files])
        for level, files in job.inputs.items()
    )
    return repr((inputs, job.output_level, job.delete_only, job.bottommost))


def pick_digest(trees=TREES, seed=48):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for index in range(trees):
        options, version, compacting = random_case(rng, STYLES[index % 4])
        job = make_picker(options).pick(version, compacting)
        digest.update(describe(job).encode() + b"\n")
    return digest.hexdigest()


def test_picks_match_the_recorded_digest():
    assert pick_digest() == GOLDEN_PICKS
