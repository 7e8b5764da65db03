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

from dataclasses import dataclass
from typing import Callable

from repro.dist.network import NetworkLink
from repro.env.base import Env
from repro.lsm.envelope import FILE_KIND_SST
from repro.lsm.filecrypto import CryptoProvider
from repro.lsm.options import Options
from repro.lsm.sst import SSTBuilder, SSTFileInfo, SSTReader, merge_tables
from repro.util.stats import StatsRegistry

#: allocator: () -> (file_number, output_path); supplied by the DB owner so
#: file numbers stay globally unique.
OutputAllocator = Callable[[], tuple[int, str]]


@dataclass
class CompactionRequest:
    """The job descriptor the compute server ships to the worker."""

    input_paths: list[str]
    bottommost: bool
    split_outputs: bool
    target_file_size: int
    job_id: int = 0


@dataclass
class CompactionResult:
    file_number: int
    info: SSTFileInfo


class CompactionService:
    """A compaction worker colocated with disaggregated storage."""

    def __init__(
        self,
        env: Env,
        provider: CryptoProvider,
        options: Options,
        dispatch_link: NetworkLink | None = None,
        name: str = "compaction-server-1",
    ):
        self.env = env
        self.provider = provider
        self.options = options
        self.dispatch_link = dispatch_link
        self.name = name
        self.stats = StatsRegistry()

    def compact(
        self, request: CompactionRequest, allocate_output: OutputAllocator
    ) -> list[CompactionResult]:
        """Merge the inputs into fresh output SSTs; return their metadata."""
        if self.dispatch_link is not None:
            self.dispatch_link.ping()  # the job RPC crosses the network

        for path in request.input_paths:
            self.stats.counter("service.bytes_read").add(self.env.file_size(path))
        readers = [
            SSTReader(self.env, path, self.provider, self.options)
            for path in request.input_paths
        ]

        def open_output() -> tuple[int, SSTBuilder]:
            number, out_path = allocate_output()
            crypto = self.provider.for_new_file(FILE_KIND_SST, out_path)
            return number, SSTBuilder(self.env, out_path, crypto, self.options)

        try:
            outputs = merge_tables(
                [reader.raw_entries() for reader in readers],
                open_output,
                keep_tombstones=not request.bottommost,
                split_size=(
                    request.target_file_size if request.split_outputs else None
                ),
            )
        finally:
            for reader in readers:
                reader.close()
        results = [CompactionResult(number, info) for number, info in outputs]
        for result in results:
            self.stats.counter("service.bytes_written").add(result.info.file_size)
        self.stats.counter("service.jobs").add(1)

        if self.dispatch_link is not None:
            self.dispatch_link.ping()  # result metadata travels back
        return results
