"""Span-based tracing with cross-layer (and cross-wire) context propagation.

The observability model mirrors OpenTelemetry at the scale of this repo:

- a :class:`Span` is one timed operation (name, trace id, span id, parent
  id, attributes);
- the :class:`Tracer` holds a per-thread span stack, so nested engine
  calls parent naturally (``db.write`` -> ``wal.append`` -> cipher work);
- a :class:`SpanContext` is the 17-byte portable form (trace id, span id,
  sampled flag) carried in a wire-frame header so a client-side span
  parents the server-side one (see ``repro.service.protocol``);
- sinks receive *finished* spans: a bounded :class:`RingBufferSink` for
  in-process inspection (tests, ``repro-stats``) and a
  :class:`JSONLFileSink` for offline analysis.

The disabled path is a near-no-op: ``Tracer.span()`` returns a shared
null context manager after a single attribute check, so instrumented hot
paths (every ``DB.get``, every WAL append) cost one branch when tracing
is off.  Sampling is decided once at the trace root and inherited by
every descendant -- including remote ones -- so a sampled-out request
produces *zero* sink writes on either side of the wire.

Environment knobs (read at import; the operator's switch for a ``serve`` or
``dbbench`` process):

- ``REPRO_TRACE=1``        force-enable the global tracer
- ``REPRO_TRACE_FILE=p``   also write finished spans to ``p`` as JSONL
- ``REPRO_TRACE_SAMPLE=f`` sample rate in [0, 1] (default 1.0)
- ``REPRO_TRACE_RING=n``   ring-buffer capacity (default 4096)
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque

#: Unix-epoch anchor captured once at import.  Span timestamps are
#: ``_EPOCH_ANCHOR + time.monotonic()``: epoch-shaped for offline tools,
#: but a wall-clock step (NTP, manual adjustment) mid-process cannot make
#: later spans appear to start before earlier ones.
_EPOCH_ANCHOR = time.time() - time.monotonic()


class SpanContext:
    """The portable identity of a span: what crosses thread/wire seams."""

    __slots__ = ("trace_id", "span_id", "sampled")

    WIRE_SIZE = 17  # 8-byte trace id + 8-byte span id + sampled flag

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_bytes(self) -> bytes:
        return (
            bytes.fromhex(self.trace_id)
            + bytes.fromhex(self.span_id)
            + (b"\x01" if self.sampled else b"\x00")
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SpanContext | None":
        if len(blob) != cls.WIRE_SIZE:
            return None
        return cls(
            trace_id=blob[:8].hex(),
            span_id=blob[8:16].hex(),
            sampled=bool(blob[16]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanContext(trace={self.trace_id}, span={self.span_id}, "
            f"sampled={self.sampled})"
        )


class Span:
    """One timed operation; use as a context manager via ``Tracer.span``."""

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id", "sampled",
        "start_unix", "attributes", "duration_s", "_t0", "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        sampled: bool,
        attributes: dict | None = None,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.attributes: dict = dict(attributes) if attributes else {}
        self.duration_s = 0.0
        self._ended = False
        if sampled:
            self.start_unix = _EPOCH_ANCHOR + time.monotonic()
            self._t0 = time.perf_counter()
        else:  # never emitted: skip both clock reads
            self.start_unix = 0.0
            self._t0 = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.sampled)

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def incr(self, key: str, amount: int = 1) -> None:
        """Accumulate a numeric attribute (block-cache hit counts etc.)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        if self.sampled:
            self.duration_s = time.perf_counter() - self._t0
            self.tracer._emit(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._pop(self)
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name}, trace={self.trace_id}, id={self.span_id})"


class _NullSpan:
    """The shared do-nothing span returned when tracing is off/sampled out."""

    __slots__ = ()
    sampled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass

    def incr(self, key: str, amount: int = 1) -> None:
        pass

    def end(self) -> None:
        pass


NULL_SPAN = _NullSpan()

#: Placeholder id for unsampled spans (nothing downstream reads them).
_ZERO_ID = "0" * 16


class RingBufferSink:
    """Keep the most recent finished spans in memory (bounded)."""

    def __init__(self, capacity: int = 4096):
        self._spans: deque = deque(maxlen=capacity)

    def emit(self, span: Span) -> None:
        self._spans.append(span)

    def spans(self) -> list[Span]:
        return list(self._spans)

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id, oldest first."""
        grouped: dict[str, list[Span]] = {}
        for span in self._spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


class JSONLFileSink:
    """Append each finished span as one JSON line (offline analysis)."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        self.emitted = 0

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def after_fork(self) -> None:
        self._lock = threading.Lock()


class Tracer:
    """Creates spans, tracks the per-thread active span, fans out to sinks."""

    def __init__(
        self,
        sinks: list | None = None,
        sample_rate: float = 1.0,
        enabled: bool = False,
    ):
        self._enabled = enabled
        self._sinks = list(sinks) if sinks else []
        self.sample_rate = sample_rate
        self._local = threading.local()
        self._rng = random.Random()

    # -- configuration -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def configure(
        self,
        enabled: bool = True,
        sinks: list | None = None,
        sample_rate: float | None = None,
    ) -> "Tracer":
        """Reconfigure in place (the global TRACER is imported by value)."""
        self._enabled = enabled
        if sinks is not None:
            self._sinks = list(sinks)
        if sample_rate is not None:
            self.sample_rate = sample_rate
        return self

    def disable(self) -> None:
        self._enabled = False

    def after_fork(self) -> None:
        """Call first thing in a forked child.  Only the forking thread
        survives a fork, so a sink lock another thread held at that moment
        would stay locked for ever: sinks that hold one re-create it."""
        for sink in self._sinks:
            rearm = getattr(sink, "after_fork", None)
            if rearm is not None:
                rearm()

    # -- span lifecycle ----------------------------------------------------

    def span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        attributes: dict | None = None,
    ):
        """Start a span (use as ``with tracer.span(...) as sp``).

        When tracing is disabled this returns the shared null span after a
        single branch -- the near-no-op path hot code relies on.
        """
        if not self._enabled:
            return NULL_SPAN
        if parent is None:
            parent = self.current()
        if parent is None:
            parent_id = None
            sampled = (
                self.sample_rate >= 1.0
                or self._rng.random() < self.sample_rate
            )
            trace_id = self._new_id() if sampled else _ZERO_ID
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled
        return Span(
            tracer=self,
            name=name,
            trace_id=trace_id,
            # Unsampled spans are never emitted and their context is only
            # read for the (inherited) sampled flag: skip id generation.
            span_id=self._new_id() if sampled else _ZERO_ID,
            parent_id=parent_id,
            sampled=sampled,
            attributes=attributes,
        )

    def _new_id(self) -> str:
        """A random 8-byte id, without the os.urandom syscall per span."""
        return f"{self._rng.getrandbits(64):016x}"

    def current(self) -> Span | None:
        """The innermost active span on this thread, if any."""
        if not self._enabled:
            return None
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- wire propagation --------------------------------------------------

    def inject(self) -> bytes:
        """Serialize the current span's context for a wire-frame header."""
        span = self.current()
        if span is None:
            return b""
        return span.context.to_bytes()

    def extract(self, blob: bytes) -> SpanContext | None:
        """Parse a wire-frame trace header into a usable parent context."""
        if not self._enabled or not blob:
            return None
        return SpanContext.from_bytes(blob)

    # -- internals ---------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # unbalanced exit; stay consistent
            stack.remove(span)

    def _emit(self, span: Span) -> None:
        for sink in self._sinks:
            try:
                sink.emit(span)
            except Exception:  # noqa: BLE001 - sinks cannot poison callers
                pass


#: The process-wide tracer every instrumented layer uses.
TRACER = Tracer()

#: Default in-memory sink, attached when tracing is force-enabled via env.
DEFAULT_RING = RingBufferSink(int(os.environ.get("REPRO_TRACE_RING", "4096")))

if os.environ.get("REPRO_TRACE"):
    _sinks: list = [DEFAULT_RING]
    _trace_file = os.environ.get("REPRO_TRACE_FILE")
    if _trace_file:
        _sinks.append(JSONLFileSink(_trace_file))
    TRACER.configure(
        enabled=True,
        sinks=_sinks,
        sample_rate=float(os.environ.get("REPRO_TRACE_SAMPLE", "1.0")),
    )
