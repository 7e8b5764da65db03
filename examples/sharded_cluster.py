#!/usr/bin/env python3
"""A ZippyDB-style sharded deployment: many SHIELD instances per server,
one shared secure DEK cache.

Shows the distributed (pre-disaggregation) setting of Section 2.2 and the
Section 5.2 claim that co-located instances share the passkey-protected
cache "thus eliminating additional network requests to the KDS".

Run:  python examples/sharded_cluster.py
"""

import tempfile

from repro.dist.sharding import ShardedDB
from repro.env.mem import MemEnv
from repro.keys.cache import SecureDEKCache
from repro.keys.kds import SimulatedKDS
from repro.lsm.options import Options
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import VirtualClock


def main() -> None:
    clock = VirtualClock()  # virtual time: we can *measure* KDS latency
    kds = SimulatedKDS(clock=clock, request_latency_s=2750e-6)
    kds.authorize_server("server-1")
    env = MemEnv()
    shared_cache = SecureDEKCache(
        tempfile.mktemp(prefix="zippy-cache-"), passkey="server-passkey",
        iterations=100,
    )

    def make_shard(index, path):
        shield = ShieldOptions(
            kds=kds, server_id="server-1", dek_cache=shared_cache
        )
        return open_shield_db(
            path, shield, Options(env=env, write_buffer_size=16 * 1024)
        )

    print("Opening a 4-shard SHIELD cluster on one server ...")
    cluster = ShardedDB("/zippy", 4, make_shard)
    for i in range(2000):
        cluster.put(b"user:%05d" % i, b"profile-%05d" % i)
    cluster.flush()
    print(f"  get(user:01234) -> {cluster.get(b'user:01234')}")
    print(f"  cross-shard scan: {len(cluster.scan(b'user:00100', b'user:00200'))} rows")

    totals = cluster.stats_snapshot()
    print(f"  total writes across shards: {totals['db.writes']:,.0f}")
    print(f"  DEKs in the shared cache  : {len(shared_cache)}")
    kds_time_load = clock.total_slept
    print(f"  KDS time spent during load: {kds_time_load * 1000:.1f} ms")
    cluster.close()

    print("\nRestarting all 4 shards (cold start, warm shared cache) ...")
    cluster = ShardedDB("/zippy", 4, make_shard)
    for i in range(0, 2000, 111):
        assert cluster.get(b"user:%05d" % i) == b"profile-%05d" % i
    restart_kds_time = clock.total_slept - kds_time_load
    fetches = sum(
        shard.options.crypto_provider.key_client.stats
        .counter("keyclient.kds_fetches").value
        for shard in cluster.shards
    )
    print(f"  KDS fetches on restart    : {fetches} "
          "(every existing DEK came from the shared local cache)")
    print(f"  KDS time on restart       : {restart_kds_time * 1000:.1f} ms "
          "(only provisioning fresh WAL/MANIFEST DEKs)")
    cluster.close()
    print("Done.")


if __name__ == "__main__":
    main()
