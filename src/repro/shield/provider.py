"""ShieldCryptoProvider: per-file DEKs, rotation-by-compaction, DS sharing."""

from __future__ import annotations

from repro.crypto.cipher import generate_nonce, spec_for
from repro.keys.client import KeyClient
from repro.lsm.envelope import (
    Envelope,
    FILE_KIND_MANIFEST,
    FILE_KIND_SST,
    FILE_KIND_WAL,
)
from repro.lsm.filecrypto import (
    CryptoProvider,
    FileCrypto,
    NULL_CRYPTO,
    make_file_crypto,
)
from repro.util.syncpoint import SYNC

SP_DEK_BEFORE_RETIRE = SYNC.declare(
    "dek:before_retire", "file deleted, its DEK still live in KDS and cache"
)
SP_DEK_AFTER_RETIRE = SYNC.declare(
    "dek:after_retire", "DEK retired (or queued for retry), caches dropped"
)


class ShieldCryptoProvider(CryptoProvider):
    """The SHIELD key policy.

    Every new critical file (SST, WAL, Manifest) triggers one KDS
    provisioning request for a fresh DEK (Section 5.1).  Opening an existing
    file resolves the envelope's DEK-ID through the secure cache / KDS.
    Deleting a file retires its DEK from both, so after a compaction the old
    DEKs are gone -- a compromised old DEK "becomes ineffective" (Section
    5.5, Scenario 3).

    The ``encrypt_*`` flags exist for the paper's ablations (Table 2
    encrypts SST-only vs. SST+WAL).
    """

    def __init__(
        self,
        key_client: KeyClient,
        scheme: str = "shake-ctr",
        encrypt_wal: bool = True,
        encrypt_sst: bool = True,
        encrypt_manifest: bool = True,
    ):
        spec_for(scheme)  # validate early
        self.key_client = key_client
        self.scheme = scheme
        self._kind_enabled = {
            FILE_KIND_WAL: encrypt_wal,
            FILE_KIND_SST: encrypt_sst,
            FILE_KIND_MANIFEST: encrypt_manifest,
        }
        self.deks_provisioned = 0
        self.deks_retired = 0

    def for_new_file(self, file_kind: int, path: str) -> FileCrypto:
        if not self._kind_enabled.get(file_kind, False):
            return NULL_CRYPTO
        dek = self.key_client.new_dek(self.scheme)
        self.deks_provisioned += 1
        return make_file_crypto(
            spec_for(dek.scheme).scheme_id,
            dek.dek_id,
            dek.key,
            generate_nonce(dek.scheme),
        )

    def for_existing_file(self, envelope: Envelope, path: str) -> FileCrypto:
        if not envelope.encrypted:
            return NULL_CRYPTO
        dek = self.key_client.get_dek(envelope.dek_id)
        return make_file_crypto(
            envelope.scheme_id, dek.dek_id, dek.key, envelope.nonce
        )

    def on_file_deleted(self, dek_id: str, path: str) -> None:
        if not dek_id:
            return
        SYNC.process(SP_DEK_BEFORE_RETIRE)
        try:
            self.key_client.retire_dek(dek_id)
        except Exception:  # noqa: BLE001 - retiring an unknown DEK is benign
            pass
        self.deks_retired += 1
        SYNC.process(SP_DEK_AFTER_RETIRE)
