"""Exception hierarchy shared by every subsystem of the reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CorruptionError(ReproError):
    """Persistent data failed a checksum, magic-number, or format check."""


class AuthenticationError(CorruptionError):
    """An AEAD authentication tag did not verify.

    Distinct from plain :class:`CorruptionError`: a failed checksum may be
    an accident, a failed *tag* is cryptographic proof that the ciphertext
    is not what this key sealed -- random device corruption or deliberate
    tampering, either way the plaintext must never be released.  Readers
    fail loudly instead of decrypting to garbage."""

    #: The SST whose unit failed, stamped by ``SSTReader``: the DB holding
    #: that file -- maybe on another server than the reader -- quarantines
    #: from it.  None for a WAL, a MANIFEST or a bare cipher call.
    sst_path: str | None = None


class RollbackError(ReproError):
    """The store's content does not match the trusted freshness anchor.

    Raised at ``DB.open`` when the Merkle root of the recovered SST set
    disagrees with the root checkpointed to the trusted monotonic counter:
    somebody restored an older (individually well-formed, correctly
    authenticated) SST+MANIFEST snapshot.  Not a subclass of
    :class:`CorruptionError` -- every byte checks out; it is the *state*
    that is stale."""


class NotFoundError(ReproError):
    """A requested key, file, or DEK does not exist."""


class InvalidArgumentError(ReproError):
    """A caller-supplied argument is out of range or inconsistent."""


class IOError_(ReproError):
    """An I/O operation failed in the (possibly simulated) environment."""


class EncryptionError(ReproError):
    """A cryptographic operation failed (bad key size, bad nonce, ...)."""


class KeyManagementError(ReproError):
    """DEK provisioning, caching, or authorization failed."""


class AuthorizationError(KeyManagementError):
    """The KDS refused the request (unauthorized or revoked server)."""


class KDSUnavailableError(KeyManagementError):
    """The KDS could not be reached (timeout, outage, open circuit).

    Retriable: the DEK exists, the *network path* to it does not right
    now.  Distinct from :class:`AuthorizationError` (a policy decision
    that retrying cannot change) and from :class:`NotFoundError` (the DEK
    is gone for good)."""


class CircuitOpenError(KDSUnavailableError):
    """The KDS circuit breaker is open: the request failed fast, without a
    network wait.  Not retried by the client-side retry loop (the breaker
    already knows the KDS is down; callers should degrade instead)."""


class ProvisioningError(KeyManagementError):
    """One-time DEK provisioning was violated (DEK already issued)."""


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent database state."""


class ServiceError(ReproError):
    """A request to the networked serving tier failed."""


class BusyError(ServiceError):
    """The server's bounded request queue was full (backpressure signal)."""


class ReplicationError(ServiceError):
    """The WAL-shipping replication stream failed or was refused."""


class DegradedError(ServiceError):
    """The server accepted the connection but is in degraded mode.

    The write was *not* applied; the client should back off and retry --
    the condition (typically a KDS outage) is expected to clear."""
