"""KDS resilience primitives: bounded retries and a circuit breaker.

SHIELD turns key management into a *network* dependency: every DEK cache
miss is a KDS round-trip (Section 5.2), so a KDS timeout or flap would
otherwise raise straight through ``KeyClient`` into reads, flushes, and
replication.  This module supplies the two standard absorbers:

- :class:`RetryPolicy` -- deadline-bounded retries with full-jitter
  exponential backoff (the AWS "full jitter" scheme: sleep a uniform
  random amount in ``[0, min(cap, base * 2**attempt)]``), so a burst of
  simultaneous failures does not retry in lockstep;
- :class:`CircuitBreaker` -- the classic closed / open / half-open state
  machine.  After ``failure_threshold`` consecutive failures the circuit
  *opens* and requests fail fast (no network wait) until ``reset_after_s``
  elapses; then one probe is let through (*half-open*) and its outcome
  closes or re-opens the circuit.

Both are deliberately deterministic under a seeded RNG / injected clock so
the model test's fault windows replay exactly, without a real sleep.
"""

from __future__ import annotations

import random
import threading

from repro.errors import (
    AuthorizationError,
    CircuitOpenError,
    NotFoundError,
    ProvisioningError,
)
from repro.util.clock import Clock, RealClock

#: Breaker states (also exported through StatsRegistry gauges).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


def is_retriable(exc: BaseException) -> bool:
    """Whether a KDS failure is worth retrying.

    Policy decisions (revoked server, one-time provisioning violations)
    and permanently missing DEKs are final, and an open circuit already
    encodes "stop asking"; everything else -- timeouts, connection
    errors, injected chaos -- is transient.
    """
    return not isinstance(
        exc,
        (AuthorizationError, ProvisioningError, NotFoundError, CircuitOpenError),
    )


class RetryPolicy:
    """Full-jitter exponential backoff bounded by a per-request deadline."""

    def __init__(
        self,
        max_attempts: int = 4,
        base_s: float = 0.01,
        cap_s: float = 0.25,
        deadline_s: float = 2.0,
        rng: random.Random | None = None,
        clock: Clock | None = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_s = base_s
        self.cap_s = cap_s
        self.deadline_s = deadline_s
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock or RealClock()

    def backoff_s(self, attempt: int) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(self.cap_s, self.base_s * (2 ** attempt))
        return self._rng.uniform(0.0, ceiling)

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` with retries; raises the last error when exhausted.

        The deadline bounds *total* wall time including backoff sleeps: a
        retry whose backoff would overshoot the deadline is not attempted.
        """
        start = self._clock.now()
        last_error: BaseException | None = None
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - classified below
                if not is_retriable(exc):
                    raise
                last_error = exc
            if attempt + 1 >= self.max_attempts:
                break
            delay = self.backoff_s(attempt)
            if self._clock.now() - start + delay > self.deadline_s:
                break
            self._clock.sleep(delay)
        raise last_error


class CircuitBreaker:
    """Closed -> open -> half-open breaker guarding one downstream service.

    Thread-safe.  ``allow()`` answers "may a request go out right now?";
    callers report the outcome with ``record_success()`` /
    ``record_failure()``.  When open, :meth:`guard` fails fast with
    :class:`~repro.errors.KDSUnavailableError` without touching the
    network -- the fail-fast half of graceful degradation.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 1.0,
        clock: Clock | None = None,
        name: str = "kds",
    ):
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self.name = name
        self._clock = clock or RealClock()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0          # closed/half-open -> open transitions
        self.fast_failures = 0  # requests rejected without a network wait

    # -- state inspection --------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    @property
    def state_code(self) -> int:
        """Numeric state for gauges: 0 closed, 1 open, 2 half-open."""
        return _STATE_CODES[self.state]

    def available(self) -> bool:
        """True unless the circuit is fully open (a half-open probe counts
        as available: one caller is allowed to test the water)."""
        return self.state != OPEN

    # -- transitions -------------------------------------------------------

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == OPEN
            and self._clock.now() - self._opened_at >= self.reset_after_s
        ):
            self._state = HALF_OPEN

    def allow(self) -> bool:
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == OPEN:
                self.fast_failures += 1
                return False
            return True

    def guard(self) -> None:
        """Raise CircuitOpenError immediately when the circuit is open."""
        if not self.allow():
            raise CircuitOpenError(
                f"{self.name} circuit is open (failing fast; retry after "
                f"{self.reset_after_s}s)"
            )

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open_locked()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open.
                self._state = OPEN
                self._opened_at = self._clock.now()
                self.trips += 1
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock.now()
                self.trips += 1

    def reset(self) -> None:
        """Force-close the circuit (test/administrative hook)."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
