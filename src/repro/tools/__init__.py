"""Command-line tools.

- ``python -m repro.tools.serve`` (``repro-serve``) -- launch the
  networked KV front-end (``repro.service``) over a SHIELD-encrypted or
  plaintext engine, optionally sharded.
- ``python -m repro.tools.sst_dump`` (``repro-sst-dump``) -- inspect an
  SST file's plaintext envelope and (when readable) its properties and
  entries.
- ``python -m repro.tools.dek_audit`` -- audit a database directory: which
  DEK protects which file, flag plaintext files and duplicate (DEK, nonce)
  pairs.

The paper's db_bench-style workloads are not shipped here; they live next
to the figure scripts, in ``benchmarks/paper.py``.
"""
