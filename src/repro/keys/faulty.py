"""FaultyKDS: a chaos wrapper around any KeyDistributionService.

Drives the resilience layer's tests and the model test's fault windows.
Faults are expressed per *request*, drawn from a seeded RNG so a failing
schedule replays exactly:

- **outage** -- every request raises :class:`KDSUnavailableError` while
  :meth:`go_down` is in effect (a full KDS denial);
- **error probability** -- each request independently fails with
  probability ``error_rate``;
- **timeouts** -- each request independently times out (sleeps
  ``timeout_after_s`` then raises) with probability ``timeout_rate``;
- **flapping** -- :meth:`set_flap_schedule` alternates up/down windows by
  request count, the deterministic analogue of a flapping network path.

``retire`` is deliberately subject to the same faults: DEK retirement is
a KDS round-trip too, and a retire dropped during an outage is exactly
the orphaned-DEK leak the audit tooling must catch.
"""

from __future__ import annotations

import random
import threading

from repro.errors import KDSUnavailableError
from repro.keys.dek import DEK
from repro.keys.kds import KeyDistributionService
from repro.util.clock import Clock, RealClock


class FaultyKDS(KeyDistributionService):
    """Wrap a KDS and inject outages, errors, timeouts, and flapping
    (``SimulatedKDS.request_latency_s`` models a slow KDS)."""

    def __init__(
        self,
        inner: KeyDistributionService,
        seed: int = 0,
        clock: Clock | None = None,
    ):
        self.inner = inner
        self.clock = clock or RealClock()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._down = False
        self._error_rate = 0.0
        self._timeout_rate = 0.0
        self._timeout_after_s = 0.0
        self._flap_period: tuple[int, int] | None = None  # (up, down) requests
        self._request_index = 0
        self.requests = 0
        self.injected_failures = 0

    # -- fault control ------------------------------------------------------

    def go_down(self) -> None:
        """Full outage: every request fails until :meth:`come_up`."""
        with self._lock:
            self._down = True

    def come_up(self) -> None:
        with self._lock:
            self._down = False

    @property
    def down(self) -> bool:
        with self._lock:
            return self._down

    def set_error_rate(self, rate: float) -> None:
        with self._lock:
            self._error_rate = rate

    def set_timeouts(self, rate: float, after_s: float = 0.0) -> None:
        """Each request independently 'times out' with probability ``rate``:
        it sleeps ``after_s`` (the client-visible timeout wait) then fails."""
        with self._lock:
            self._timeout_rate = rate
            self._timeout_after_s = after_s

    def set_flap_schedule(self, up_requests: int, down_requests: int) -> None:
        """Alternate ``up_requests`` served, then ``down_requests`` failed."""
        if up_requests < 1 or down_requests < 0:
            raise ValueError("flap schedule needs up >= 1, down >= 0")
        with self._lock:
            self._flap_period = (up_requests, down_requests)
            self._request_index = 0

    def heal(self) -> None:
        """Disarm every fault."""
        with self._lock:
            self._down = False
            self._error_rate = 0.0
            self._timeout_rate = 0.0
            self._timeout_after_s = 0.0
            self._flap_period = None

    # -- the fault gate ------------------------------------------------------

    def _fail(self, why: str) -> None:
        self.injected_failures += 1
        raise KDSUnavailableError(f"injected KDS fault: {why}")

    def _gate(self) -> None:
        with self._lock:
            self.requests += 1
            index = self._request_index
            self._request_index += 1
            down = self._down
            error_rate = self._error_rate
            timeout_rate = self._timeout_rate
            timeout_after_s = self._timeout_after_s
            flap = self._flap_period
            error_roll = self._rng.random()
            timeout_roll = self._rng.random()
        if down:
            self._fail("KDS is down")
        if flap is not None:
            up, down_window = flap
            if index % (up + down_window) >= up:
                self._fail("KDS is flapping (down window)")
        if timeout_rate > 0 and timeout_roll < timeout_rate:
            if timeout_after_s > 0:
                self.clock.sleep(timeout_after_s)
            self._fail("request timed out")
        if error_rate > 0 and error_roll < error_rate:
            self._fail("request errored")

    # -- KeyDistributionService ----------------------------------------------

    def provision(self, server_id: str, scheme: str = "shake-ctr") -> DEK:
        self._gate()
        return self.inner.provision(server_id, scheme)

    def fetch(self, server_id: str, dek_id: str) -> DEK:
        self._gate()
        return self.inner.fetch(server_id, dek_id)

    def retire(self, dek_id: str) -> None:
        self._gate()
        self.inner.retire(dek_id)

    # -- passthroughs the tests and audit tooling rely on ---------------------

    def __getattr__(self, name: str):
        # Delegate inspection helpers (knows, live_dek_count, authorize_server,
        # ...) to the wrapped KDS; only the request path is fault-gated.
        return getattr(self.inner, name)
