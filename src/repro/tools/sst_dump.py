"""Inspect SST files: envelope, properties, and (optionally) entries.

The envelope is plaintext by design, so even without any key this tool
shows the file's format (SST v1, v2 or v3; a WAL's or MANIFEST's ``log v1``
or ``log v2``) and which DEK it needs -- exactly what a remote compaction
worker reads before asking the KDS.  Properties and entries are SST-only.

Examples::

    python -m repro.tools.sst_dump /path/to/000007.sst
    python -m repro.tools.sst_dump --scan --limit 10 /path/plain.sst
    python -m repro.tools.sst_dump --key <hex> --scheme shake-ctr enc.sst
"""

from __future__ import annotations

import argparse
import sys

from repro.crypto.cipher import scheme_name
from repro.env.local import LocalEnv
from repro.lsm.envelope import (
    FILE_KIND_MANIFEST,
    FILE_KIND_WAL,
    MAX_ENVELOPE_SIZE,
    decode_envelope,
    kind_name,
)
from repro.lsm.filecrypto import PlaintextCryptoProvider, SingleKeyCryptoProvider
from repro.lsm.options import Options
from repro.lsm.sst import SSTReader, sst_format


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.sst_dump", description="Inspect an SST file."
    )
    parser.add_argument("path", help="SST file path")
    parser.add_argument("--scan", action="store_true",
                        help="print entries (needs a readable file)")
    parser.add_argument("--limit", type=int, default=20)
    parser.add_argument("--key", help="hex DEK for encrypted files")
    parser.add_argument("--scheme", default=None,
                        help="cipher scheme for --key (default: the scheme "
                        "named by the file's own envelope)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    env = LocalEnv()

    head = env.read_file(args.path)[:MAX_ENVELOPE_SIZE]
    envelope = decode_envelope(head)
    print(f"file       : {args.path}")
    print(f"kind       : {kind_name(envelope.file_kind)}")
    is_log = envelope.file_kind in (FILE_KIND_WAL, FILE_KIND_MANIFEST)
    file_format = f"log v{envelope.version}" if is_log else sst_format(envelope)
    print(f"format     : {file_format}")
    if envelope.encrypted:
        print(f"scheme     : {scheme_name(envelope.scheme_id)} "
              f"(id {envelope.scheme_id})")
        print(f"dek_id     : {envelope.dek_id}")
        print(f"nonce      : {envelope.nonce.hex()}")
    else:
        print("scheme     : none (plaintext)")

    if is_log:
        return 0
    if envelope.encrypted and not args.key:
        print("\n(encrypted; pass --key to read properties/entries)")
        return 0

    if args.key and envelope.encrypted:
        scheme = args.scheme or scheme_name(envelope.scheme_id)
        provider = SingleKeyCryptoProvider(scheme, bytes.fromhex(args.key))
    else:
        provider = PlaintextCryptoProvider()
    reader = SSTReader(env, args.path, provider, Options())
    try:
        print("\nproperties:")
        for prop_key in sorted(reader.properties):
            print(f"  {prop_key} = {reader.properties[prop_key]}")
        if args.scan:
            print(f"\nentries (first {args.limit}):")
            for index, (key, seq, vtype, value) in enumerate(reader.entries()):
                if index >= args.limit:
                    print("  ...")
                    break
                kind = "PUT" if vtype else "DEL"
                print(f"  {kind} seq={seq} {key!r} = {value[:40]!r}")
    finally:
        reader.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
