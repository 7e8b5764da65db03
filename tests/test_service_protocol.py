"""Tests for the wire protocol: framing, CRC, payload codecs."""

import random
import socket
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.lsm.envelope import ENVELOPE_VERSION_UNITS, FILE_KIND_WAL, Envelope
from repro.service import protocol
from repro.service.protocol import Message, ProtocolError
from repro.util.coding import (
    decode_length_prefixed,
    decode_varint64,
    encode_length_prefixed,
    encode_varint64,
)


def _roundtrip_over_socket(frames: bytes) -> socket.socket:
    """Feed raw bytes to a connected socket pair; return the read end."""
    read_end, write_end = socket.socketpair()
    write_end.sendall(frames)
    write_end.close()
    return read_end


def test_frame_roundtrip_all_fields():
    msg = Message(protocol.OP_PUT, 12345, b"\x00payload\xff")
    assert protocol.decode_frame_body(protocol.encode_frame(msg)[4:]) == msg


def test_frame_roundtrip_empty_payload_and_zero_id():
    msg = Message(protocol.OP_PING, 0)
    assert protocol.decode_frame_body(protocol.encode_frame(msg)[4:]) == msg


def test_frame_roundtrip_large_request_id():
    msg = Message(protocol.OP_GET, 2**40, b"k")
    assert protocol.decode_frame_body(protocol.encode_frame(msg)[4:]) == msg


def test_frame_roundtrip_with_trace_header():
    trace = bytes(range(16)) + b"\x01"
    msg = Message(protocol.OP_PUT, 7, b"payload", trace)
    decoded = protocol.decode_frame_body(protocol.encode_frame(msg)[4:])
    assert decoded == msg
    assert decoded.trace == trace
    assert decoded.payload == b"payload"


def test_untraced_frame_is_byte_identical_to_v1():
    # A frame without a trace header must not change shape: the opcode
    # byte carries no TRACE_FLAG and no length-prefixed header follows.
    msg = Message(protocol.OP_GET, 3, b"key")
    frame = protocol.encode_frame(msg)
    assert frame[8] == protocol.OP_GET  # length(4) + crc(4) -> opcode byte
    traced = protocol.encode_frame(Message(protocol.OP_GET, 3, b"key", b"\x01" * 17))
    assert traced[8] == protocol.OP_GET | protocol.TRACE_FLAG
    assert len(traced) == len(frame) + 1 + 17  # lp-len byte + context


def test_trace_flag_never_collides_with_opcodes():
    opcodes = [
        value for name, value in vars(protocol).items()
        if name.startswith(("OP_", "RESP_"))
    ]
    for opcode in opcodes:
        assert opcode & protocol.TRACE_FLAG == 0
        assert opcode | protocol.TRACE_FLAG < 256


@pytest.mark.parametrize("flip_at", [4, 8, 9, -1])
def test_corrupted_frame_fails_crc(flip_at):
    frame = bytearray(protocol.encode_frame(Message(protocol.OP_PUT, 7, b"abcdef")))
    frame[flip_at] ^= 0x40
    with pytest.raises(ProtocolError):
        protocol.decode_frame_body(bytes(frame[4:]))


def test_frame_reader_over_socket():
    msg = Message(protocol.OP_SCAN, 3, b"xyz")
    sock = _roundtrip_over_socket(protocol.encode_frame(msg))
    reader = protocol.FrameReader(sock)
    try:
        assert reader.read() == msg
        assert reader.read() is None  # clean EOF
    finally:
        sock.close()


def test_frame_reader_pipelined_stream():
    messages = [Message(protocol.OP_GET, i, b"k%d" % i) for i in range(20)]
    sock = _roundtrip_over_socket(
        b"".join(protocol.encode_frame(m) for m in messages)
    )
    reader = protocol.FrameReader(sock)
    try:
        for expected in messages:
            assert reader.read() == expected
    finally:
        sock.close()


def test_truncated_frame_raises_mid_frame():
    frame = protocol.encode_frame(Message(protocol.OP_PUT, 1, b"hello"))
    sock = _roundtrip_over_socket(frame[: len(frame) - 2])
    try:
        with pytest.raises(ProtocolError):
            protocol.FrameReader(sock).read()
    finally:
        sock.close()


def test_implausible_length_rejected():
    from repro.util.coding import encode_fixed32

    sock = _roundtrip_over_socket(
        encode_fixed32(protocol.MAX_FRAME_SIZE + 1) + b"\x00" * 16
    )
    try:
        with pytest.raises(ProtocolError):
            protocol.FrameReader(sock).read()
    finally:
        sock.close()


def test_send_message_is_frame_reader_inverse():
    left, right = socket.socketpair()
    msg = Message(protocol.OP_WRITE_BATCH, 99, bytes(range(256)))
    try:
        writer = threading.Thread(
            target=protocol.send_message, args=(left, msg)
        )
        writer.start()
        assert protocol.FrameReader(right).read() == msg
        writer.join()
    finally:
        left.close()
        right.close()


# -- payload codecs ----------------------------------------------------------


def test_put_and_key_payloads():
    key, value = b"user:1", b"\x00\x01binary\xff"
    assert protocol.decode_put(protocol.encode_put(key, value)) == (key, value)
    assert protocol.decode_key(protocol.encode_key(key)) == key


@pytest.mark.parametrize(
    "start,end,limit",
    [
        (b"", None, None),
        (b"a", b"z", 10),
        (b"a", None, 0),
        (b"start", b"start\x00", None),
    ],
)
def test_scan_payload_roundtrip(start, end, limit):
    payload = protocol.encode_scan(start, end, limit)
    assert protocol.decode_scan(payload) == (start, end, limit)


def test_pairs_payload_roundtrip():
    pairs = [(b"k%03d" % i, b"v" * i) for i in range(50)]
    assert protocol.decode_pairs(protocol.encode_pairs(pairs)) == pairs
    assert protocol.decode_pairs(protocol.encode_pairs([])) == []


def test_a_negative_scan_limit_is_refused_before_it_is_encoded():
    # It used to go on the wire as "unbounded" (limit + 1 == 0).
    with pytest.raises(errors.InvalidArgumentError):
        protocol.encode_scan(b"", None, -1)


# -- the pairs codec against the two-helper codec it replaced ----------------


def _oracle_encode_pairs(pairs):
    parts = [encode_varint64(len(pairs))]
    for key, value in pairs:
        parts.append(encode_length_prefixed(key))
        parts.append(encode_length_prefixed(value))
    return b"".join(parts)


def _oracle_decode_pairs(payload):
    count, offset = decode_varint64(payload, 0)
    pairs = []
    for __ in range(count):
        key, offset = decode_length_prefixed(payload, offset)
        value, offset = decode_length_prefixed(payload, offset)
        pairs.append((key, value))
    return pairs


#: Lengths whose varints are one, two and three bytes long, and the edges
#: between them.
_LENGTHS = (
    st.integers(0, 0x7F)
    | st.integers(0x80, 0x3FFF)
    | st.integers(0x4000, 20_000)
    | st.sampled_from([0x7F, 0x80, 0x3FFF, 0x4000])
)


@st.composite
def _pairs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = draw(st.lists(st.tuples(_LENGTHS, _LENGTHS), max_size=6))
    return [(rng.randbytes(k), rng.randbytes(v)) for k, v in sizes]


@settings(max_examples=60, deadline=None)
@given(pairs=_pairs(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_pairs_codec_matches_the_codec_it_replaced(pairs, cut):
    payload = protocol.encode_pairs(pairs)
    assert payload == _oracle_encode_pairs(pairs)
    assert protocol.decode_pairs(payload) == _oracle_decode_pairs(payload) == pairs
    # A cut anywhere leaves a payload whose count promises more than it
    # holds; a byte past the last pair is not a pair: both are refused,
    # never answered with a short list.
    for bad in (payload[:int(cut * len(payload))], payload + b"\x00"):
        with pytest.raises(errors.CorruptionError):
            protocol.decode_pairs(bad)
        # The lazy decoder hands out only whole pairs, in order, before it
        # raises.
        taken = []
        with pytest.raises(errors.CorruptionError):
            for pair in protocol.iter_pairs(bad):
                taken.append(pair)
        assert taken == pairs[:len(taken)]


def test_stats_payload_roundtrip():
    stats = {"server": {"service.get": 3}, "committed_sequence": 17}
    assert protocol.decode_stats(protocol.encode_stats(stats)) == stats


def test_sequence_payload_roundtrip():
    for seq in (0, 1, 2**32, 2**56):
        assert protocol.decode_sequence(protocol.encode_sequence(seq)) == seq


def test_auth_and_subscribe_payloads():
    assert protocol.decode_auth(protocol.encode_auth("replica-7")) == "replica-7"
    for held in ([], [7, 300, 2**40]):
        payload = protocol.encode_repl_subscribe("replica-7", 12345, held)
        assert protocol.decode_repl_subscribe(payload) == ("replica-7", 12345, held)
    payload = protocol.encode_repl_file("000012.sst", b"\x00sealed")
    assert protocol.decode_repl_file(payload) == ("000012.sst", b"\x00sealed")


def test_repl_accept_payload_roundtrip():
    """The stream's envelope, then the primary's committed sequence."""
    envelope = Envelope(FILE_KIND_WAL, 3, "dek-abc", b"\x01" * 16,
                        version=ENVELOPE_VERSION_UNITS)
    payload = protocol.encode_repl_accept(envelope, 999)
    assert payload == envelope.encode() + (999).to_bytes(8, "little")
    decoded, primary_seq = protocol.decode_repl_accept(payload)
    assert decoded == replace(envelope, header_size=len(envelope.encode()))
    assert primary_seq == 999
    for truncated in (payload[:-1], payload[:5]):
        with pytest.raises(errors.CorruptionError):
            protocol.decode_repl_accept(truncated)


def test_error_payload_maps_back_to_repro_exceptions():
    for exc in (
        errors.NotFoundError("missing"),
        errors.AuthorizationError("denied"),
        errors.BusyError("full"),
    ):
        rebuilt = protocol.decode_error(protocol.encode_error(exc))
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)


def test_unknown_error_class_degrades_to_service_error():
    rebuilt = protocol.decode_error(protocol.encode_error(RuntimeError("boom")))
    assert type(rebuilt) is errors.ServiceError
    assert str(rebuilt) == "boom"
