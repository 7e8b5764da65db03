"""The wire protocol: length-prefixed, CRC-protected binary frames.

Frame layout (little-endian, the same primitives as the storage formats)::

    length      fixed32   byte count of everything that follows
    crc         fixed32   masked CRC-32 of everything after this field
    opcode      u8
    request_id  varint    echoed verbatim in the response frame
    payload     bytes     op-specific (see the encode_*/decode_* helpers)

Responses carry the request's ID, so a connection can have many requests
in flight (pipelining) and match responses out of order.  Replication
frames (``RESP_REPL_*``) are server-initiated pushes on a subscribed
connection: a ``REPL_FRAME`` is one WAL record sealed as a unit of the
stream, a log whose envelope ``REPL_ACCEPT`` carries and whose DEK the
replica resolves through its own KeyClient; a ``REPL_FILE`` is a store file
exactly as the primary holds it (already sealed under its own DEK).  Both
follow the primary's file policy: WAL records on the wire are plaintext
only where its WALs are.

Tracing: a frame whose opcode byte has :data:`TRACE_FLAG` set carries a
length-prefixed trace-context header (``repro.obs``'s 17-byte span
context) between the request id and the payload.  That is how a
client-side span parents the server-side one; untraced frames are
byte-identical to protocol version 1.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from dataclasses import dataclass

from repro import errors
from repro.errors import CorruptionError
from repro.lsm.envelope import Envelope, decode_envelope
from repro.util.checksum import masked_crc32
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    decode_length_prefixed,
    decode_varint64,
    encode_fixed64,
    encode_length_prefixed,
    encode_varint64,
)

PROTOCOL_VERSION = 2

#: Opcode-byte flag marking a frame that carries a trace-context header.
#: Request opcodes stay below 0x20 and response opcodes avoid the 0x40 bit,
#: so masking the flag back out is unambiguous.
TRACE_FLAG = 0x40

# -- request opcodes ---------------------------------------------------------
OP_GET = 1
OP_PUT = 2
OP_DELETE = 3
OP_WRITE_BATCH = 4
OP_SCAN = 5
OP_STATS = 6
OP_FLUSH = 7
OP_COMPACT = 8
OP_AUTH = 9
OP_PING = 10
OP_HEALTH = 11
OP_TOPOLOGY = 12
OP_REPL_SUBSCRIBE = 16

# -- response opcodes --------------------------------------------------------
RESP_OK = 128
RESP_VALUE = 129
RESP_NOT_FOUND = 130
RESP_PAIRS = 131
RESP_STATS = 132
RESP_ERROR = 133
RESP_BUSY = 134
RESP_DEGRADED = 135
RESP_REPL_ACCEPT = 144
RESP_REPL_FRAME = 145
RESP_REPL_POSITION = 146
RESP_REPL_FILE = 148

OPCODE_NAMES = {
    OP_GET: "get",
    OP_PUT: "put",
    OP_DELETE: "delete",
    OP_WRITE_BATCH: "write_batch",
    OP_SCAN: "scan",
    OP_STATS: "stats",
    OP_FLUSH: "flush",
    OP_COMPACT: "compact",
    OP_AUTH: "auth",
    OP_PING: "ping",
    OP_HEALTH: "health",
    OP_TOPOLOGY: "topology",
    OP_REPL_SUBSCRIBE: "repl_subscribe",
}


class OpNames(dict):
    """``{opcode: "<prefix>.<op name>"}``, each name formatted on its
    opcode's first use: a per-op span or metric name costs one dict hit.
    An opcode is one byte, so the map stays small whatever a peer sends."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, opcode: int) -> str:
        name = OPCODE_NAMES.get(opcode, f"op{opcode}")
        self[opcode] = full = f"{self.prefix}.{name}"
        return full


#: Upper bound on one frame; anything larger is treated as stream corruption.
MAX_FRAME_SIZE = 64 * 1024 * 1024

#: Upper bound on one ``recv``: CPython allocates (then trims) this much per call.
RECV_SIZE = 64 * 1024


class ProtocolError(CorruptionError):
    """The byte stream violated the frame format (bad CRC, bad length)."""


@dataclass(slots=True)
class Message:
    """One parsed frame.  ``trace`` is the opaque trace-context header.

    Slotted and mutable (so unhashable): a served op builds several, and a
    frozen dataclass's ``__init__`` costs four times as much."""

    opcode: int
    request_id: int
    payload: bytes = b""
    trace: bytes = b""

    def body(self) -> tuple[bytes, int]:
        """``(buf, offset)``: the payload is ``buf[offset:]`` (as for
        :meth:`Frame.body`)."""
        return self.payload, 0


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------


#: ``length ‖ crc``: the two fixed32 fields ahead of the opcode byte.
_PREFIX = struct.Struct("<II")
_LENGTH = struct.Struct("<I")


#: The opcode byte of every opcode, with and without :data:`TRACE_FLAG`.
_OPCODE_BYTE = [bytes((value,)) for value in range(0x100)]


def pack_frame(opcode: int, request_id: int, payload: bytes = b"",
               trace: bytes = b"") -> bytes:
    """The on-wire frame (length prefix included) of one message, built
    from its fields: the one frame encoder.  The CRC runs over the header
    and then the payload, so the payload is copied once, into the frame."""
    if trace:
        head = (
            _OPCODE_BYTE[opcode | TRACE_FLAG]
            + encode_varint64(request_id)
            + encode_length_prefixed(trace)
        )
    else:
        head = _OPCODE_BYTE[opcode] + encode_varint64(request_id)
    return _PREFIX.pack(
        len(head) + len(payload) + 4, masked_crc32(payload, zlib.crc32(head))
    ) + head + payload


def encode_frame(msg: Message) -> bytes:
    """Serialize a message to its on-wire frame (length prefix included)."""
    return pack_frame(msg.opcode, msg.request_id, msg.payload, msg.trace)


def _parse_header(buf, pos: int) -> tuple[int, int, bytes, int]:
    """Parse the frame header starting at the opcode byte.

    Returns ``(opcode, request_id, trace, payload_offset)`` with the trace
    flag already masked out of the opcode.
    """
    try:
        opcode = buf[pos]
        request_id, pos = decode_varint64(buf, pos + 1)
        trace = b""
        if opcode & TRACE_FLAG:
            opcode &= ~TRACE_FLAG
            trace, pos = decode_length_prefixed(buf, pos)
    except (IndexError, CorruptionError) as exc:
        raise ProtocolError(f"truncated frame header: {exc}") from None
    return opcode, request_id, trace, pos


def _check_crc(buf, crc_offset: int) -> None:
    # A view, not a slice: a frame may be MAX_FRAME_SIZE long and the
    # front-end checks every request frame it forwards.
    crc, body_offset = decode_fixed32(buf, crc_offset)
    if masked_crc32(memoryview(buf)[body_offset:]) != crc:
        raise ProtocolError("frame checksum mismatch")


def decode_frame_body(body: bytes) -> Message:
    """Parse the bytes after the length prefix (crc + header + payload)."""
    _check_crc(body, 0)
    opcode, request_id, trace, pos = _parse_header(body, 4)
    return Message(opcode, request_id, body[pos:], trace)


class Frame:
    """One complete frame kept as raw bytes, with only its header parsed.

    A proxy that forwards frames verbatim needs the opcode, the request
    id and -- for routed ops -- the key at the head of the payload, all
    read in place; that costs a fraction of a full decode + re-encode per
    hop.  The CRC is not checked on construction: call :meth:`verify` at
    the trust boundary.
    """

    __slots__ = ("raw", "opcode", "request_id", "trace", "_payload_off")

    def __init__(self, raw: bytes):
        self.raw = raw
        header = _parse_header(raw, 8)
        self.opcode, self.request_id, self.trace, self._payload_off = header

    def verify(self) -> None:
        _check_crc(self.raw, 4)

    def key(self) -> bytes:
        """The key at the head of a GET/PUT/DELETE payload, read in place."""
        return decode_length_prefixed(self.raw, self._payload_off)[0]

    def payload(self) -> bytes:
        return self.raw[self._payload_off:]

    def body(self) -> tuple[bytes, int]:
        """``(buf, offset)``: the payload, in place in ``raw``."""
        return self.raw, self._payload_off

    def message(self) -> Message:
        return Message(self.opcode, self.request_id, self.payload(), self.trace)


class FrameSplitter:
    """The one place a length prefix is read off a byte stream: feed
    whatever ``recv`` returned, take the complete :class:`Frame`s so far.

    The cursor lives on the splitter and the consumed prefix is trimmed
    once per :meth:`feed`: a pipelined burst costs one pass, and an
    iteration abandoned midway (or ended by a :class:`ProtocolError`)
    leaves exactly the unconsumed tail buffered.  A chunk fed while
    nothing is buffered is kept as it came, so a ``recv`` that holds
    exactly one frame becomes that frame's ``raw`` without a copy; the
    buffer turns into a ``bytearray`` only when a tail must wait for more.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self):
        self._buf: bytes | bytearray = b""
        self._pos = 0

    def feed(self, data: bytes) -> None:
        buf, pos = self._buf, self._pos
        self._pos = 0
        if pos >= len(buf):
            self._buf = bytes(data)  # the chunk itself, when it is bytes
        elif type(buf) is bytes:
            self._buf = bytearray(memoryview(buf)[pos:])
            self._buf += data
        else:
            del buf[:pos]
            buf += data

    def next_frame(self) -> Frame | None:
        """The next complete frame, or None until more bytes are fed."""
        buf = self._buf
        pos = self._pos
        if len(buf) - pos < 4:
            return None
        (length,) = _LENGTH.unpack_from(buf, pos)
        if length < 4 or length > MAX_FRAME_SIZE:
            raise ProtocolError(f"implausible frame length {length}")
        end = pos + 4 + length
        if len(buf) < end:
            return None
        self._pos = end
        raw = buf[pos:end]  # the kept chunk itself when it is one frame
        return Frame(raw if type(raw) is bytes else bytes(raw))

    def frames(self):
        while (frame := self.next_frame()) is not None:
            yield frame


class FrameReader(FrameSplitter):
    """Blocking reader: a splitter fed by bounded ``recv``s -- one ``recv``
    per frame, or per pipelined burst.  It buffers whatever arrived behind
    the frame it returns, so it owns its socket's inbound bytes: one
    reader per socket, for the socket's life."""

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock

    def read(self) -> Message | None:
        """The next message, CRC-checked; None when the peer closed
        cleanly (between frames)."""
        # Nothing buffered (a reply awaited): straight to the socket.
        frame = self.next_frame() if len(self._buf) > self._pos else None
        while frame is None:
            data = self._sock.recv(RECV_SIZE)
            if not data:
                if len(self._buf) > self._pos:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self.feed(data)
            frame = self.next_frame()
        frame.verify()
        return frame.message()


def send_message(sock: socket.socket, msg: Message) -> None:
    """Write one frame to a socket."""
    sock.sendall(encode_frame(msg))


# ---------------------------------------------------------------------------
# Payload helpers (request side)
# ---------------------------------------------------------------------------


def encode_key(key: bytes) -> bytes:
    return encode_length_prefixed(key)


def decode_key(payload: bytes) -> bytes:
    key, __ = decode_length_prefixed(payload, 0)
    return key


def encode_put(key: bytes, value: bytes) -> bytes:
    return encode_length_prefixed(key) + encode_length_prefixed(value)


def decode_put(payload: bytes) -> tuple[bytes, bytes]:
    key, offset = decode_length_prefixed(payload, 0)
    value, __ = decode_length_prefixed(payload, offset)
    return key, value


def encode_scan(start: bytes, end: bytes | None, limit: int | None) -> bytes:
    out = encode_length_prefixed(start)
    if end is None:
        out += b"\x00"
    else:
        out += b"\x01" + encode_length_prefixed(end)
    out += encode_varint64(0 if limit is None else limit + 1)
    return out


def decode_scan(payload: bytes) -> tuple[bytes, bytes | None, int | None]:
    start, offset = decode_length_prefixed(payload, 0)
    if offset >= len(payload):
        raise ProtocolError("truncated scan request")
    has_end = payload[offset]
    offset += 1
    end = None
    if has_end:
        end, offset = decode_length_prefixed(payload, offset)
    raw_limit, __ = decode_varint64(payload, offset)
    return start, end, (None if raw_limit == 0 else raw_limit - 1)


def encode_auth(server_id: str) -> bytes:
    return encode_length_prefixed(server_id.encode())


def decode_auth(payload: bytes) -> str:
    raw, __ = decode_length_prefixed(payload, 0)
    return raw.decode()


def encode_topology(endpoints) -> bytes:
    """OP_TOPOLOGY response body: the shard workers' ``(host, port)``
    endpoints in shard order; empty when the server is its own only
    endpoint (the threaded server, a shard worker)."""
    parts = [encode_varint64(len(endpoints))]
    for host, port in endpoints:
        parts.append(encode_length_prefixed(host.encode()))
        parts.append(encode_varint64(port))
    return b"".join(parts)


def decode_topology(payload: bytes) -> list[tuple[str, int]]:
    count, offset = decode_varint64(payload, 0)
    endpoints = []
    for __ in range(count):
        host, offset = decode_length_prefixed(payload, offset)
        port, offset = decode_varint64(payload, offset)
        endpoints.append((host.decode(), port))
    return endpoints


def encode_repl_subscribe(
    server_id: str, last_applied_seq: int, held: tuple[int, ...] | list[int] = ()
) -> bytes:
    """``held``: the SST numbers the replica's store holds."""
    return encode_length_prefixed(server_id.encode()) + b"".join(
        map(encode_varint64, (last_applied_seq, *held))
    )


def decode_repl_subscribe(payload: bytes) -> tuple[str, int, list[int]]:
    raw, offset = decode_length_prefixed(payload, 0)
    seq, offset = decode_varint64(payload, offset)
    held = []
    while offset < len(payload):
        number, offset = decode_varint64(payload, offset)
        held.append(number)
    return raw.decode(), seq, held


def encode_repl_file(name: str, data: bytes) -> bytes:
    return encode_length_prefixed(name.encode()) + data


def decode_repl_file(payload: bytes) -> tuple[str, bytes]:
    name, offset = decode_length_prefixed(payload, 0)
    return name.decode(), payload[offset:]


# ---------------------------------------------------------------------------
# Payload helpers (response side)
# ---------------------------------------------------------------------------


def encode_value(value: bytes) -> bytes:
    return encode_length_prefixed(value)


def decode_value(payload: bytes) -> bytes:
    value, __ = decode_length_prefixed(payload, 0)
    return value


def encode_pairs(pairs: list[tuple[bytes, bytes]]) -> bytes:
    parts = [encode_varint64(len(pairs))]
    for key, value in pairs:
        parts.append(encode_length_prefixed(key))
        parts.append(encode_length_prefixed(value))
    return b"".join(parts)


def decode_pairs(payload: bytes) -> list[tuple[bytes, bytes]]:
    count, offset = decode_varint64(payload, 0)
    pairs: list[tuple[bytes, bytes]] = []
    for __ in range(count):
        key, offset = decode_length_prefixed(payload, offset)
        value, offset = decode_length_prefixed(payload, offset)
        pairs.append((key, value))
    return pairs


def encode_stats(stats: dict) -> bytes:
    return json.dumps(stats, sort_keys=True).encode()


def decode_stats(payload: bytes) -> dict:
    return json.loads(payload.decode())


def encode_health(health: dict) -> bytes:
    """Health verdict payload (OP_HEALTH response and RESP_DEGRADED body)."""
    return json.dumps(health, sort_keys=True).encode()


def decode_health(payload: bytes) -> dict:
    if not payload:
        return {"state": "", "reason": "", "error": None}
    return json.loads(payload.decode())


def encode_sequence(seq: int) -> bytes:
    return encode_fixed64(seq)


def decode_sequence(payload: bytes) -> int:
    seq, __ = decode_fixed64(payload, 0)
    return seq


def encode_error(exc: BaseException) -> bytes:
    return (
        encode_length_prefixed(type(exc).__name__.encode())
        + encode_length_prefixed(str(exc).encode())
    )


def error_reply(request_id: int, exc: BaseException) -> Message:
    return Message(RESP_ERROR, request_id, encode_error(exc))


#: Exception classes a server may legitimately put on the wire, by name.
_ERROR_TYPES = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ReproError)
}


def decode_error(payload: bytes) -> Exception:
    """Rebuild the closest matching exception from an error frame."""
    kind_raw, offset = decode_length_prefixed(payload, 0)
    message_raw, __ = decode_length_prefixed(payload, offset)
    kind = kind_raw.decode()
    message = message_raw.decode()
    exc_type = _ERROR_TYPES.get(kind, errors.ServiceError)
    return exc_type(message)


def encode_repl_accept(envelope: Envelope, primary_seq: int) -> bytes:
    """The stream's plaintext envelope, then the primary's committed
    sequence: the replica opens the stream as it opens any sealed file."""
    return envelope.encode() + encode_fixed64(primary_seq)


def decode_repl_accept(payload: bytes) -> tuple[Envelope, int]:
    envelope = decode_envelope(payload)
    primary_seq, __ = decode_fixed64(payload, envelope.header_size)
    return envelope, primary_seq
