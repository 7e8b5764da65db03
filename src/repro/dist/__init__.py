"""Disaggregated-storage substrate (Section 2.2, Figure 2; evaluated in
Section 6.4).

The paper's DS testbed is two servers on a 1 Gbps switch with HDFS on the
storage side.  Here the same topology is simulated:

- :class:`NetworkLink` -- latency + bandwidth + byte accounting between a
  compute server and the storage cluster.
- :class:`StorageServer` / :class:`RemoteEnv` -- an HDFS-like remote file
  store; every byte the engine reads or writes crosses the link.
- :class:`TieredEnv` -- WALs on local storage, SSTs remote (the tiered
  optimization the paper cites).
- :class:`CompactionService` + DB integration -- offloaded compaction on
  the storage server, which resolves DEKs from envelope DEK-IDs through
  the KDS (metadata-enabled DEK sharing, Sections 5.4/5.6).
- :class:`ReadOnlyInstance` -- an on-demand read-only LSM-KVS sharing the
  same files, again resolving DEKs by metadata.
- :func:`build_ds_deployment` -- one-call assembly of the whole topology.
"""

from repro.dist.network import NetworkConfig, NetworkLink
from repro.dist.remote_env import RemoteEnv, StorageServer, TieredEnv
from repro.dist.compaction_service import CompactionService
from repro.dist.readonly import ReadOnlyInstance
from repro.dist.deployment import DSDeployment, build_ds_deployment
from repro.dist.sharding import ShardedDB, shard_for_key

__all__ = [
    "NetworkConfig",
    "NetworkLink",
    "StorageServer",
    "RemoteEnv",
    "TieredEnv",
    "CompactionService",
    "ReadOnlyInstance",
    "DSDeployment",
    "build_ds_deployment",
    "ShardedDB",
    "shard_for_key",
]
