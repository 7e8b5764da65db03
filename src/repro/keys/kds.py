"""Key Distribution Service implementations.

The paper's KDS (Secure Swarm Toolkit) is a decentralized service that

1. provisions fresh DEKs with unique identifiers,
2. resolves a DEK-ID back to key material for *authorized* servers,
3. can revoke a breached server's authorization, and
4. can enforce *one-time provisioning*: once a freshly minted DEK-ID has been
   claimed by a fetch, later fetches of the same DEK-ID are denied -- so a
   leaked plaintext DEK-ID is useless to an attacker (Section 5.4).

:class:`InMemoryKDS` gives the bare semantics for tests and monolithic runs;
:class:`SimulatedKDS` adds the per-request latency model (the paper measures
~2750 microseconds per SSToolkit request) and the authorization machinery
used by the disaggregated-storage experiments (Figure 16).
"""

from __future__ import annotations

import threading

from repro.errors import AuthorizationError, NotFoundError, ProvisioningError
from repro.keys.dek import DEK
from repro.keys.policies import KeyPolicy, PerFileIsolationPolicy
from repro.util.clock import Clock, RealClock
from repro.util.stats import StatsRegistry

# Average SSToolkit request service time measured by the paper (Section 6.3).
DEFAULT_KDS_LATENCY_S = 2750e-6


class KeyDistributionService:
    """Interface every KDS implementation provides."""

    def provision(self, server_id: str, scheme: str = "shake-ctr") -> DEK:
        """Mint and return a fresh DEK for ``server_id``."""
        raise NotImplementedError

    def fetch(self, server_id: str, dek_id: str) -> DEK:
        """Resolve ``dek_id`` to key material for an authorized server."""
        raise NotImplementedError

    def retire(self, dek_id: str) -> None:
        """Destroy a DEK (called when its file is deleted/compacted away)."""
        raise NotImplementedError


class InMemoryKDS(KeyDistributionService):
    """Minimal KDS: a thread-safe in-memory DEK registry, no authorization."""

    def __init__(self, policy: KeyPolicy | None = None, clock: Clock | None = None):
        self.policy = policy or PerFileIsolationPolicy()
        self.clock = clock or RealClock()
        self.stats = StatsRegistry()
        self._deks: dict[str, DEK] = {}
        self._lock = threading.Lock()

    def provision(self, server_id: str, scheme: str = "shake-ctr") -> DEK:
        dek = self.policy.make_dek(server_id, scheme, self.clock.now())
        with self._lock:
            self._deks[dek.dek_id] = dek
        self.stats.counter("kds.provisions").add(1)
        return dek

    def fetch(self, server_id: str, dek_id: str) -> DEK:
        self.stats.counter("kds.fetches").add(1)
        with self._lock:
            dek = self._deks.get(dek_id)
        if dek is None:
            raise NotFoundError(f"unknown or retired DEK: {dek_id}")
        return dek

    def retire(self, dek_id: str) -> None:
        with self._lock:
            self._deks.pop(dek_id, None)
        self.stats.counter("kds.retired").add(1)

    def live_dek_count(self) -> int:
        with self._lock:
            return len(self._deks)

    def fork(self) -> "InMemoryKDS":
        """An independent copy of the registry as it stands right now.

        The model test's ``crash_at`` rule snapshots the KDS with the env at
        a sync point: recovery must resolve DEKs as they were at the
        instant of the crash, not as the continuing workload left them.
        """
        forked = InMemoryKDS(policy=self.policy, clock=self.clock)
        with self._lock:
            forked._deks = dict(self._deks)
        return forked

    def knows(self, dek_id: str) -> bool:
        with self._lock:
            return dek_id in self._deks


class SimulatedKDS(InMemoryKDS):
    """KDS with server authorization, one-time provisioning, and latency.

    ``request_latency_s`` is charged (through the clock) on every provision
    and fetch, modelling the network + service time of a real KDS
    deployment; Figure 16's sensitivity sweep varies exactly this knob.
    """

    def __init__(
        self,
        policy: KeyPolicy | None = None,
        clock: Clock | None = None,
        request_latency_s: float = DEFAULT_KDS_LATENCY_S,
        one_time_fetch: bool = False,
    ):
        super().__init__(policy=policy, clock=clock)
        self.request_latency_s = request_latency_s
        self.one_time_fetch = one_time_fetch
        self._authorized: set[str] = set()
        self._revoked: set[str] = set()
        self._fetched_once: set[str] = set()

    # -- authorization ----------------------------------------------------

    def authorize_server(self, server_id: str) -> None:
        with self._lock:
            self._authorized.add(server_id)
            self._revoked.discard(server_id)

    def revoke_server(self, server_id: str) -> None:
        """Block a breached server from any further DEK requests."""
        with self._lock:
            self._revoked.add(server_id)
            self._authorized.discard(server_id)

    def is_authorized(self, server_id: str) -> bool:
        with self._lock:
            return server_id in self._authorized and server_id not in self._revoked

    def _check_authorized(self, server_id: str) -> None:
        if not self.is_authorized(server_id):
            raise AuthorizationError(
                f"server {server_id!r} is not authorized by the KDS"
            )

    # -- requests ----------------------------------------------------------

    def _charge_latency(self) -> None:
        self.clock.sleep(self.request_latency_s)
        self.stats.histogram("kds.request_latency").record(self.request_latency_s)

    def provision(self, server_id: str, scheme: str = "shake-ctr") -> DEK:
        self._check_authorized(server_id)
        self._charge_latency()
        return super().provision(server_id, scheme)

    def fetch(self, server_id: str, dek_id: str) -> DEK:
        self._check_authorized(server_id)
        self._charge_latency()
        if self.one_time_fetch:
            with self._lock:
                if dek_id in self._fetched_once:
                    raise ProvisioningError(
                        f"DEK {dek_id} was already issued once (one-time "
                        "provisioning); the request is denied"
                    )
                self._fetched_once.add(dek_id)
        return super().fetch(server_id, dek_id)
