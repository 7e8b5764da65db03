"""Sharded multi-instance deployment (Section 2.2's distributed setting).

Before disaggregation, LSM-KVS scaled by running many instances per server
with hash sharding (the paper cites ZippyDB).  This module provides that
substrate:

- :class:`ShardedDB` -- a fixed-shard hash router over N engine instances;
- co-located instances can share one passkey-protected
  :class:`~repro.keys.SecureDEKCache` (Section 5.2: "Multiple LSM-KVS
  instances ... on the same server can share this cache"), so a DEK fetched
  by one shard is a local hit for every other.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools

from repro.errors import IOError_
from repro.lsm.db import DB
from repro.lsm.options import ReadOptions, WriteOptions
from repro.lsm.write_batch import WriteBatch


def shard_for_key(key: bytes, num_shards: int) -> int:
    """Stable hash routing (blake2, independent of PYTHONHASHSEED).

    This is a wire contract, not an implementation detail: the shard-aware
    client routes with the same function the server uses, so both sides
    must agree for every key on every interpreter (see the cross-process
    determinism test in tests/test_sharding.py).
    """
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


#: Severity order of health states; unknown states rank as failed.
HEALTH_RANK = {"healthy": 0, "degraded": 1, "failed": 2}


def merge_health(verdicts) -> dict:
    """Worst-of across shards: one failed shard fails the whole front."""
    worst = {"state": "healthy", "reason": "", "error": None}
    for verdict in verdicts:
        if not verdict:
            continue
        if (
            HEALTH_RANK.get(verdict.get("state"), 2)
            > HEALTH_RANK.get(worst.get("state"), 0)
        ):
            worst = verdict
    return worst


#: OP_STATS sections that are flat ``name -> number`` maps.
_COUNTER_SECTIONS = ("server", "engine", "crypto", "integrity", "keyclient")


def sum_numeric(dicts) -> dict:
    """Union of keys across flat stat maps; numbers are summed, the first
    occurrence wins for anything else."""
    out: dict = {}
    for snapshot in dicts:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                out.setdefault(key, value)
            elif isinstance(out.get(key), (int, float)):
                out[key] += value
            else:
                out[key] = value
    return out


def _merge_obs(parts) -> dict:
    """``obs`` sections merged: summed/worst-of signals (see
    repro.obs.signals)."""
    from repro.obs.signals import merge_signals

    return {"signals": merge_signals([p.get("signals", {}) for p in parts])}


def merge_stats(snapshots) -> dict:
    """Merge the OP_STATS snapshots of disjoint shards into one snapshot.

    The layout is fixed and each rule applies at its own place only: the
    counter sections and ``committed_sequence`` are summed, ``health`` is
    worst-of, ``obs`` merges by its own rules, and ``replication`` is
    empty because positions live in each engine's own sequence space.
    Anything else (``workers``, ``endpoints``) describes one endpoint and
    is dropped.
    """
    snapshots = list(snapshots)
    out: dict = {
        "committed_sequence": sum(
            snap.get("committed_sequence", 0) for snap in snapshots
        ),
        "health": merge_health(snap.get("health") for snap in snapshots),
        "replication": {},
    }
    for section in _COUNTER_SECTIONS:
        parts = [snap[section] for snap in snapshots if section in snap]
        if parts:
            out[section] = sum_numeric(parts)
    obs_parts = [snap["obs"] for snap in snapshots if "obs" in snap]
    if obs_parts:
        out["obs"] = _merge_obs(obs_parts)
    return out


def summarize_parts(snapshots) -> dict:
    """Each part's ``health`` and ``committed_sequence`` by its index: the
    per-endpoint section (``workers``, ``endpoints``) beside a merge."""
    return {
        str(index): {
            "health": snap.get("health", {}),
            "committed_sequence": snap.get("committed_sequence", 0),
        }
        for index, snap in enumerate(snapshots)
    }


def split_batch(batch: WriteBatch, route) -> dict:
    """Split a batch into one sub-batch per ``route(key)`` value.

    Atomicity holds per shard (as in production sharded deployments,
    cross-shard writes are not atomic); entry order is kept within each.
    """
    per_shard: dict = {}
    for vtype, key, value in batch.items():
        sub_batch = per_shard.setdefault(route(key), WriteBatch())
        if vtype:
            sub_batch.put(key, value)
        else:
            sub_batch.delete(key)
    return per_shard


def merge_scan_results(per_shard, limit: int | None):
    """k-way ordered merge of per-shard sorted scans; limit applied once.

    Shards hold disjoint key sets, so the merge never needs tie-breaking,
    and the global top-``limit`` is a subset of the union of per-shard
    top-``limit`` results (limit pushdown is safe).  A part is taken at
    most one pair ahead of the merge: ``protocol.iter_pairs`` parts decode
    no pair past the limit.
    """
    return list(itertools.islice(heapq.merge(*per_shard), limit))


class ShardedDB:
    """A fixed set of DB shards behind one key-value interface.

    ``make_shard(shard_index, path) -> DB`` lets the caller decide each
    shard's configuration -- typically ``open_shield_db`` with a shared KDS
    and one shared SecureDEKCache for the whole server.
    """

    def __init__(self, base_path: str, num_shards: int, make_shard):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.base_path = base_path
        self.num_shards = num_shards
        self._closed = False
        self.shards: list[DB] = []
        try:
            for index in range(num_shards):
                self.shards.append(
                    make_shard(index, f"{base_path}/shard-{index:03d}")
                )
        except BaseException:
            # A shard constructor failing mid-way must not leak the open
            # WAL/MANIFEST handles of the shards already built.
            self.close()
            raise

    def _shard(self, key: bytes) -> DB:
        if self._closed:
            raise IOError_("sharded database is closed")
        return self.shards[shard_for_key(key, self.num_shards)]

    def put(self, key: bytes, value: bytes,
            opts: WriteOptions | None = None) -> None:
        self._shard(key).put(key, value, opts)

    def get(self, key: bytes, opts: ReadOptions | None = None) -> bytes | None:
        return self._shard(key).get(key, opts)

    def delete(self, key: bytes, opts: WriteOptions | None = None) -> None:
        self._shard(key).delete(key, opts)

    def write(self, batch: WriteBatch, opts: WriteOptions | None = None) -> None:
        """Split a batch by shard (see :func:`split_batch`)."""
        if self._closed:
            raise IOError_("sharded database is closed")
        for shard, sub_batch in split_batch(batch, self._shard).items():
            shard.write(sub_batch, opts)

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Globally ordered cross-shard range scan.

        Each shard scan is already sorted, so a k-way ``heapq.merge`` is
        enough; shards hold disjoint key sets, so no tie-breaking.  The
        limit is pushed down (the global top-``limit`` is a subset of the
        union of per-shard top-``limit`` results) and applied once more
        after the merge.
        """
        if self._closed:
            raise IOError_("sharded database is closed")
        return merge_scan_results(
            [shard.scan(start, end, limit) for shard in self.shards], limit
        )

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def compact_range(self) -> None:
        for shard in self.shards:
            shard.compact_range()

    def health(self) -> dict:
        """Worst-of across shards: one failed shard fails the whole front."""
        if self._closed:
            return {"state": "failed", "reason": "closed", "error": None}
        return merge_health(shard.health() for shard in self.shards)

    def try_recover(self) -> bool:
        """Attempt recovery on every shard; True when all are writable."""
        if self._closed:
            return False
        recovered = True
        for shard in self.shards:
            recovered = shard.try_recover() and recovered
        return recovered

    def committed_sequence(self) -> int:
        """Entries committed across all shards (each shard numbers its
        own writes, so the sum counts every committed entry once)."""
        return sum(shard.committed_sequence() for shard in self.shards)

    def stats_snapshot(self) -> dict:
        """Each shard's :meth:`DB.stats_snapshot`, summed."""
        return sum_numeric(shard.stats_snapshot() for shard in self.shards)

    def obs_dict(self) -> dict:
        """Each shard's ``obs`` section, merged as :func:`merge_stats` does."""
        return _merge_obs([shard.obs_dict() for shard in self.shards])

    def close(self) -> None:
        """Close every shard; idempotent, and closes the rest even if one
        shard's close raises (the first error is re-raised at the end)."""
        if self._closed:
            return
        self._closed = True
        first_error: BaseException | None = None
        for shard in self.shards:
            try:
                shard.close()
            except BaseException as exc:  # noqa: BLE001 - keep closing the rest
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ShardedDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
