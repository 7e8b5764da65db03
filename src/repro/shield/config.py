"""ShieldOptions and the one-call constructor for a SHIELD-protected DB."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.keys.cache import SecureDEKCache
from repro.keys.client import KeyClient
from repro.keys.kds import KeyDistributionService
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield.provider import ShieldCryptoProvider

# Paper default: a 512-byte application-managed WAL buffer (Section 5.3).
DEFAULT_WAL_BUFFER = 512


@dataclass
class ShieldOptions:
    """Everything SHIELD adds on top of plain engine Options."""

    kds: KeyDistributionService
    server_id: str = "server-1"
    scheme: str = "shake-ctr"
    dek_cache: Optional[SecureDEKCache] = None
    wal_buffer_size: int = DEFAULT_WAL_BUFFER
    encrypt_wal: bool = True
    encrypt_sst: bool = True
    encrypt_manifest: bool = True
    #: SHIELD++ freshness anchor (repro.integrity.counter.TrustedCounter);
    #: None keeps rollback protection off.
    trusted_counter: Optional[object] = None

    def build_key_client(self) -> KeyClient:
        """Retries transient KDS failures and trips a circuit breaker on
        outages (see repro.keys.resilience), so ``health()`` can say
        ``kds-unavailable``."""
        return KeyClient.resilient(
            self.kds,
            self.server_id,
            cache=self.dek_cache,
            default_scheme=self.scheme,
        )

    def build_provider(self) -> ShieldCryptoProvider:
        return ShieldCryptoProvider(
            self.build_key_client(),
            scheme=self.scheme,
            encrypt_wal=self.encrypt_wal,
            encrypt_sst=self.encrypt_sst,
            encrypt_manifest=self.encrypt_manifest,
        )


def open_shield_db(
    path: str,
    shield: ShieldOptions,
    base_options: Options | None = None,
) -> DB:
    """Open a DB with SHIELD encryption embedded in its write path.

    The returned DB's ``provider`` attribute is the
    :class:`ShieldCryptoProvider`, exposing DEK provisioning/retirement
    counters for inspection.  Every engine setting but the WAL buffer
    comes from ``base_options``, the compaction encryption's chunk size
    and threads included.
    """
    options = replace(base_options) if base_options is not None else Options()
    options.crypto_provider = shield.build_provider()
    options.wal_buffer_size = shield.wal_buffer_size
    if shield.trusted_counter is not None:
        options.trusted_counter = shield.trusted_counter
    return DB(path, options)
