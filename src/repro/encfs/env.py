"""EncryptedEnv: transparent whole-Env encryption with a single DEK.

File layout: ``magic(4) | scheme_id(1) | nonce(nonce_size)`` followed by the
CTR-encrypted payload.  Because CTR is length-preserving, logical offsets
map 1:1 onto physical offsets (plus the fixed header), which keeps
direct-I/O-style block alignment intact -- the one engine-visible
requirement the paper notes for RocksDB integration.
"""

from __future__ import annotations

from repro.crypto.cipher import create_cipher, generate_nonce, spec_for
from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.env.base import EnvWrapper, RandomAccessFileWrapper, WritableFileWrapper
from repro.errors import CorruptionError, EncryptionError

_MAGIC = b"ENCF"


class _EncryptedWritableFile(WritableFileWrapper):
    def __init__(self, inner: WritableFile, scheme_id: int, key: bytes, nonce: bytes):
        super().__init__(inner)
        self._scheme_id = scheme_id
        self._key = key
        self._nonce = nonce
        self._offset = 0
        inner.append(_MAGIC + bytes([scheme_id]) + nonce)

    def append(self, data: bytes) -> None:
        # A fresh cipher context per I/O call, as an interception layer
        # below the engine must do (it sees isolated write calls).
        context = create_cipher(self._scheme_id, self._key, self._nonce)
        self._inner.append(context.xor_at(data, self._offset))
        self._offset += len(data)

    def tell(self) -> int:
        return self._offset


class _EncryptedRandomAccessFile(RandomAccessFileWrapper):
    def __init__(self, inner: RandomAccessFile, key: bytes, expected_scheme: int):
        super().__init__(inner)
        header_size = 5
        header = inner.read(0, header_size)
        if len(header) < header_size or header[:4] != _MAGIC:
            raise CorruptionError("file was not written by EncryptedEnv")
        scheme_id = header[4]
        if scheme_id != expected_scheme:
            raise EncryptionError(
                f"file scheme {scheme_id} does not match env scheme "
                f"{expected_scheme}"
            )
        nonce_size = spec_for(scheme_id).nonce_size
        self._nonce = inner.read(header_size, nonce_size)
        self._header_size = header_size + nonce_size
        self._scheme_id = scheme_id
        self._key = key

    def read(self, offset: int, length: int) -> bytes:
        raw = self._inner.read(self._header_size + offset, length)
        if not raw:
            return raw
        context = create_cipher(self._scheme_id, self._key, self._nonce)
        return context.xor_at(raw, offset)

    def size(self) -> int:
        return max(0, self._inner.size() - self._header_size)


class EncryptedEnv(EnvWrapper):
    """Wrap any Env so every byte on storage is ciphertext.

    The DEK is supplied once at construction (the paper: "a user-provided
    DEK, supplied at LSM-KVS startup, kept solely in memory").
    """

    def __init__(self, inner: Env, key: bytes, scheme: str = "shake-ctr"):
        spec = spec_for(scheme)
        if spec.aead:
            raise EncryptionError(
                f"{scheme} is an AEAD scheme; EncryptedEnv intercepts "
                "arbitrary-offset reads and needs a length-preserving "
                "seekable cipher (engine-level AEAD lives in the SST/WAL "
                "formats instead)"
            )
        if len(key) != spec.key_size:
            raise EncryptionError(
                f"{scheme} needs a {spec.key_size}-byte key, got {len(key)}"
            )
        super().__init__(inner)
        self.scheme = scheme
        self._scheme_id = spec.scheme_id
        self._key = key
        self._header_size = 5 + spec.nonce_size

    def new_writable_file(self, path: str) -> WritableFile:
        nonce = generate_nonce(self.scheme)
        return _EncryptedWritableFile(
            self.inner.new_writable_file(path), self._scheme_id, self._key, nonce
        )

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _EncryptedRandomAccessFile(
            self.inner.new_random_access_file(path), self._key, self._scheme_id
        )

    def file_size(self, path: str) -> int:
        return max(0, self.inner.file_size(path) - self._header_size)


def reencrypt_file(env: EncryptedEnv, path: str, new_env: EncryptedEnv) -> None:
    """Re-encrypt one file under a new instance DEK.

    This is the instance-level design's only rotation mechanism, and the
    reason the paper calls rotation there "a large-scale operation that is
    I/O-intensive": every byte is read, decrypted, and rewritten.
    """
    plaintext = env.read_file(path)
    tmp_path = path + ".reenc"
    new_env.write_file(tmp_path, plaintext)
    new_env.inner.rename_file(tmp_path, path)
