"""Offloaded compaction (Sections 5.6 and 6.4, Figures 22-24).

The compaction worker runs on the storage cluster (as Disaggregated-RocksDB
and CaaS-LSM do): it reads input SSTs through storage-local I/O, merges, and
writes outputs locally, so the heavy I/O never crosses the compute link --
only the small job RPC does.  Crucially, the worker is a *different server*:
it learns which DEK each input needs from the plaintext envelope DEK-ID and
resolves it through its own KeyClient (secure cache first, then the KDS),
and it provisions fresh DEKs for its outputs.  No centralized file->DEK
mapping exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dist.network import NetworkLink
from repro.lsm.compaction import CompactionJob, MergeExecutor
from repro.lsm.sst import SSTFileInfo
from repro.util.stats import StatsRegistry


@dataclass(eq=False)
class CompactionService(MergeExecutor):
    """A compaction worker colocated with disaggregated storage: the merge
    executor over the worker's env and the worker's own provider, plus the
    job RPC's two link crossings and the ``service.*`` counters."""

    dispatch_link: NetworkLink | None = None
    name: str = "compaction-server-1"
    stats: StatsRegistry = field(default_factory=StatsRegistry, init=False)

    def merge(
        self,
        directory: str,
        job: CompactionJob,
        target_file_size: int,
        allocate_number: Callable[[], int],
    ) -> list[tuple[int, SSTFileInfo]]:
        if self.dispatch_link is not None:
            self.dispatch_link.ping()  # the job RPC crosses the network
        self.stats.counter("service.bytes_read").add(job.total_input_bytes())
        outputs = super().merge(directory, job, target_file_size, allocate_number)
        self.stats.counter("service.bytes_written").add(
            sum(info.file_size for __, info in outputs)
        )
        self.stats.counter("service.jobs").add(1)
        if self.dispatch_link is not None:
            self.dispatch_link.ping()  # result metadata travels back
        return outputs
