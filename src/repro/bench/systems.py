"""The systems under test (Section 6.1's naming):

- ``baseline``  -- unmodified, unencrypted engine ("unencrypted RocksDB").
- ``encfs``     -- instance-level design: EncryptedEnv below the engine.
- ``shield``    -- SHIELD: per-file DEKs embedded in the write path.

Each has a ``+walbuf`` variant enabling the application-managed WAL buffer
(Section 5.3); the paper plots exactly these six configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.cipher import generate_key
from repro.encfs.env import EncryptedEnv
from repro.env.base import Env
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS, KeyDistributionService
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield.config import ShieldOptions
from repro.errors import InvalidArgumentError

DEFAULT_WAL_BUFFER = 512


@dataclass(frozen=True)
class SystemSpec:
    name: str
    design: str          # baseline | encfs | shield
    wal_buffer: int


SYSTEMS = [
    "baseline",
    "baseline+walbuf",
    "encfs",
    "encfs+walbuf",
    "shield",
    "shield+walbuf",
]


def parse_system(name: str, wal_buffer: int = DEFAULT_WAL_BUFFER) -> SystemSpec:
    base, __, suffix = name.partition("+")
    if base not in ("baseline", "encfs", "shield"):
        raise InvalidArgumentError(f"unknown system {name!r}")
    if suffix not in ("", "walbuf"):
        raise InvalidArgumentError(f"unknown system variant {name!r}")
    return SystemSpec(
        name=name, design=base, wal_buffer=wal_buffer if suffix == "walbuf" else 0
    )


def make_system(
    name: str,
    path: str = "/benchdb",
    base_options: Options | None = None,
    env: Env | None = None,
    kds: KeyDistributionService | None = None,
    scheme: str = "shake-ctr",
    server_id: str = "bench-server",
    wal_buffer: int = DEFAULT_WAL_BUFFER,
) -> DB:
    """Open a fresh DB configured as one of the paper's systems."""
    spec = parse_system(name, wal_buffer)
    options = replace(base_options) if base_options is not None else Options()
    options.env = env if env is not None else MemEnv()
    options.wal_buffer_size = spec.wal_buffer
    options.crypto_provider = None

    if spec.design == "encfs":
        options.env = EncryptedEnv(options.env, generate_key(scheme), scheme)
        return DB(path, options)

    if spec.design == "shield":
        shield = ShieldOptions(
            kds=kds if kds is not None else InMemoryKDS(),
            server_id=server_id,
            scheme=scheme,
            wal_buffer_size=spec.wal_buffer,
        )
        options.crypto_provider = shield.build_provider()
        return DB(path, options)

    return DB(path, options)
