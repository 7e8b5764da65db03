"""CLI wrapper around :func:`repro.lsm.repair.repair_db`.

Example::

    python -m repro.tools.repair /path/to/db
    python -m repro.tools.repair --scheme shake-ctr --key <hex> /path/to/db
"""

from __future__ import annotations

import argparse
import sys

from repro.env.local import LocalEnv
from repro.lsm.filecrypto import PlaintextCryptoProvider, SingleKeyCryptoProvider
from repro.lsm.repair import repair_db


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.repair",
        description="Rebuild a lost/corrupt MANIFEST from the SST files.",
    )
    parser.add_argument("path", help="database directory")
    parser.add_argument("--key", help="hex instance DEK for EncFS-less "
                        "single-key databases")
    parser.add_argument("--scheme", default="shake-ctr", help="cipher scheme")
    args = parser.parse_args(argv)

    provider = (
        SingleKeyCryptoProvider(args.scheme, bytes.fromhex(args.key))
        if args.key
        else PlaintextCryptoProvider()
    )
    count = repair_db(LocalEnv(), args.path, provider=provider)
    print(f"recovered {count} SST file(s); fresh MANIFEST written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
