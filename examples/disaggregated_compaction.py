#!/usr/bin/env python3
"""Disaggregated storage with offloaded compaction and a read-only replica.

Builds the paper's Section 6.4 topology in miniature:

- a compute server runs the primary SHIELD DB against remote storage over
  a simulated gigabit link;
- a compaction worker on the storage server merges SSTs, resolving DEKs
  from envelope DEK-IDs through the shared KDS (metadata-enabled sharing);
- a read-only instance on a third "server" serves queries from the same
  shared files with its own KDS identity.

Run:  python examples/disaggregated_compaction.py
"""

import random
import time

from repro.dist.deployment import build_ds_deployment
from repro.dist.readonly import ReadOnlyInstance
from repro.keys.kds import SimulatedKDS
from repro.lsm.options import Options
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import ScaledClock


def main() -> None:
    # Simulated 1 Gbps link; sleeps scaled 50x down so the demo is snappy.
    clock = ScaledClock(0.02)
    deployment = build_ds_deployment(clock=clock)

    kds = SimulatedKDS(clock=clock, request_latency_s=2750e-6)
    for server in ("compute-1", "compaction-1", "reader-1"):
        kds.authorize_server(server)

    engine = deployment.db_options(
        Options(
            write_buffer_size=32 * 1024,
            level0_file_num_compaction_trigger=2,
        )
    )
    worker_provider = ShieldOptions(kds=kds, server_id="compaction-1").build_provider()
    engine.compaction_service = deployment.compaction_service(
        provider=worker_provider, options=engine
    )
    db = open_shield_db(
        "/ds-db", ShieldOptions(kds=kds, server_id="compute-1"), engine
    )

    print("Running fillrandom on the compute server (storage is remote) ...")
    rng = random.Random(42)
    start = time.perf_counter()
    for i in range(3000):
        db.put(b"key-%06d" % rng.randrange(1500), b"value-%06d" % i + bytes(88))
    elapsed = time.perf_counter() - start
    db.wait_for_compaction()
    print(f"  {3000 / elapsed:,.0f} ops/sec over the simulated link")

    service = engine.compaction_service
    print("\nOffloaded compaction (ran on the storage server):")
    print(f"  jobs executed     : {service.stats.counter('service.jobs').value}")
    print(f"  bytes read        : {service.stats.counter('service.bytes_read').value:,}")
    print(f"  bytes written     : {service.stats.counter('service.bytes_written').value:,}")
    worker_client = worker_provider.key_client
    print(
        "  DEKs fetched by ID:",
        worker_client.stats.counter("keyclient.kds_fetches").value,
        "(resolved from plaintext envelope metadata)",
    )

    print("\nNetwork link (compute <-> storage):")
    print(f"  sent     : {deployment.link.bytes_sent:,} bytes")
    print(f"  received : {deployment.link.bytes_received:,} bytes")
    print(
        "  note: compaction I/O stayed OFF the link -- "
        f"the worker moved {service.stats.counter('service.bytes_read').value:,}"
        " bytes storage-locally."
    )

    print("\nLaunching a read-only instance on another server ...")
    reader_provider = ShieldOptions(kds=kds, server_id="reader-1").build_provider()
    with ReadOnlyInstance(
        "/ds-db", deployment.db_options(Options()), provider=reader_provider
    ) as replica:
        sample = replica.scan(limit=3)
        print("  replica scan sample:")
        for key, value in sample:
            print(f"    {key!r} = {len(value)}B value")

    db.close()
    print("\nDone: one dataset, three servers, zero shared key material on disk.")


if __name__ == "__main__":
    main()
