"""The wire path's budget, as counts: ``recv``s per frame on every blocking
socket, and selector calls per served frame in the executor loop.

Nothing here sleeps or times anything: the blocking reader runs over a
scripted socket that records what was asked of it, and the loop runs over
a selector that records every ``modify`` and signals the test through
events.
"""

import itertools
import selectors
import socket
import threading
from collections import deque

import pytest

from repro.env.mem import MemEnv
from repro.errors import CorruptionError
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.service import protocol
from repro.service.client import Endpoint, KVClient, _PooledConnection
from repro.service.protocol import FrameReader, FrameSplitter, Message, ProtocolError
from repro.service.server import KVServer

READ = selectors.EVENT_READ
READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE
WAIT_S = 20.0

MESSAGES = [
    Message(protocol.OP_PING, 1),
    Message(protocol.OP_PUT, 300, protocol.encode_put(b"k", b"v" * 40),
            trace=b"\x07" * 17),
    Message(protocol.RESP_VALUE, 2**40, protocol.encode_value(b"")),
]
FRAMES = [protocol.encode_frame(msg) for msg in MESSAGES]


class ScriptedSocket:
    """``recv`` hands out the scripted chunks in order (a chunk longer than
    the caller asked for is cut there), then a clean EOF."""

    def __init__(self, chunks):
        self.chunks = deque(chunks)
        self.asked: list[int] = []

    def recv(self, nbytes: int) -> bytes:
        self.asked.append(nbytes)
        if not self.chunks:
            return b""
        chunk = self.chunks.popleft()
        if len(chunk) > nbytes:
            self.chunks.appendleft(chunk[nbytes:])
        return chunk[:nbytes]


# -- the blocking reader -----------------------------------------------------


def test_reader_reassembles_a_one_byte_drip():
    stream = b"".join(FRAMES)
    sock = ScriptedSocket(stream[i:i + 1] for i in range(len(stream)))
    reader = FrameReader(sock)
    assert [reader.read() for __ in MESSAGES] == MESSAGES
    assert len(sock.asked) == len(stream)
    assert reader.read() is None  # clean EOF, between frames


def test_three_frames_in_one_chunk_cost_one_recv():
    sock = ScriptedSocket([b"".join(FRAMES)])
    reader = FrameReader(sock)
    assert [reader.read() for __ in MESSAGES] == MESSAGES
    assert len(sock.asked) == 1


def test_exactly_one_recv_per_whole_frame():
    sock = ScriptedSocket(FRAMES)
    reader = FrameReader(sock)
    for count, expected in enumerate(MESSAGES, start=1):
        assert reader.read() == expected
        assert len(sock.asked) == count


def test_a_frame_split_across_two_recvs_behind_a_whole_one():
    sock = ScriptedSocket([FRAMES[0] + FRAMES[1][:5], FRAMES[1][5:]])
    reader = FrameReader(sock)
    assert reader.read() == MESSAGES[0]
    assert len(sock.asked) == 1
    assert reader.read() == MESSAGES[1]
    assert len(sock.asked) == 2
    assert reader.read() is None


def test_no_recv_asks_for_more_than_64_kib():
    big = Message(protocol.OP_PUT, 9, protocol.encode_put(b"k", b"x" * 300_000))
    stream = protocol.encode_frame(big) + FRAMES[0]
    sock = ScriptedSocket([stream])
    reader = FrameReader(sock)
    assert reader.read() == big
    assert reader.read() == MESSAGES[0]
    assert reader.read() is None
    assert max(sock.asked) <= 64 * 1024
    assert len(sock.asked) == -(-len(stream) // 65536) + 1  # + the EOF


@pytest.mark.parametrize("stream, complaint", [
    (FRAMES[1][:-2], "closed mid-frame"),
    (FRAMES[0] + FRAMES[1][:3], "closed mid-frame"),
    (b"\x03\x00\x00\x00" + b"\x00" * 8, "implausible frame length"),
    (b"\xff\xff\xff\xff" + b"\x00" * 8, "implausible frame length"),
    (FRAMES[1][:-1] + bytes([FRAMES[1][-1] ^ 0x40]), "checksum mismatch"),
])
def test_reader_rejects_a_damaged_stream(stream, complaint):
    reader = FrameReader(ScriptedSocket([stream]))
    with pytest.raises(ProtocolError, match=complaint):
        while reader.read() is not None:
            pass


# -- the splitter under it ---------------------------------------------------


def test_splitter_splits_a_pipelined_burst_in_order():
    messages = [
        Message(protocol.OP_GET, rid, protocol.encode_key(b"key-%d" % rid))
        for rid in range(1, 501)
    ]
    stream = b"".join(protocol.encode_frame(msg) for msg in messages)
    splitter = FrameSplitter()
    splitter.feed(stream[:-5])  # the last frame is still short
    seen = [frame.message() for frame in splitter.frames()]
    splitter.feed(stream[-5:])
    seen += [frame.message() for frame in splitter.frames()]
    assert seen == messages


def test_a_chunk_that_is_one_frame_becomes_that_frame_uncopied():
    splitter = FrameSplitter()
    for raw, expected in zip(FRAMES, MESSAGES):
        splitter.feed(raw)
        frame = splitter.next_frame()
        assert frame.raw is raw
        assert frame.message() == expected
        assert splitter.next_frame() is None


def test_abandoned_iteration_keeps_exactly_the_unconsumed_tail():
    splitter = FrameSplitter()
    splitter.feed(b"".join(FRAMES) + FRAMES[0][:6])
    for frame in splitter.frames():
        assert frame.message() == MESSAGES[0]
        break  # e.g. the front-end returns when conn.alive flips
    assert [f.message() for f in splitter.frames()] == MESSAGES[1:]
    splitter.feed(FRAMES[0][6:])
    assert [f.message() for f in splitter.frames()] == MESSAGES[:1]
    assert list(splitter.frames()) == []


def test_an_error_in_the_consumer_loses_no_later_frame():
    splitter = FrameSplitter()
    splitter.feed(b"".join(FRAMES))
    with pytest.raises(ProtocolError):
        for frame in splitter.frames():
            raise ProtocolError("the consumer's own check failed")
    assert [f.message() for f in splitter.frames()] == MESSAGES[1:]


def test_a_bad_length_mid_burst_surfaces_after_the_good_frames():
    splitter = FrameSplitter()
    splitter.feed(FRAMES[0] + FRAMES[1] + b"\x01\x00\x00\x00" + FRAMES[2])
    seen = []
    with pytest.raises(ProtocolError, match="implausible frame length"):
        for frame in splitter.frames():
            seen.append(frame.message())
    assert seen == MESSAGES[:2]


def test_frame_key_is_read_in_place():
    put = protocol.encode_frame(Message(
        protocol.OP_PUT, 2**20, protocol.encode_put(b"routed", b"v" * 500),
        trace=b"\x01" * 17,
    ))
    frame = protocol.Frame(put)
    assert frame.key() == b"routed" == protocol.decode_key(frame.payload())
    with pytest.raises(CorruptionError):
        protocol.Frame(protocol.encode_frame(
            Message(protocol.OP_GET, 1, b"\x09abc")  # key runs past the frame
        )).key()


# -- the client's request bytes ---------------------------------------------


class RecordingSocket:
    """Stands in for a client's connected socket: records every
    ``sendall`` and answers each request RESP_OK under its id."""

    def __init__(self):
        self.sent: list[bytes] = []
        self._replies: deque = deque()

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))
        rid = protocol.Frame(bytes(data)).request_id
        self._replies.append(protocol.encode_frame(Message(protocol.RESP_OK, rid)))

    def recv(self, nbytes: int) -> bytes:
        return self._replies.popleft() if self._replies else b""

    def setsockopt(self, *args) -> None:
        pass

    def settimeout(self, timeout) -> None:
        pass

    def close(self) -> None:
        pass


REQUEST_ID_VARINTS = {
    1: "01", 127: "7f", 128: "8001", 16383: "ff7f", 16384: "808001",
}


@pytest.mark.parametrize("trace", [b"", bytes(range(17))], ids=["plain", "traced"])
@pytest.mark.parametrize("rid", sorted(REQUEST_ID_VARINTS))
def test_the_client_sends_exactly_the_encoded_frame(monkeypatch, rid, trace):
    sock = RecordingSocket()
    monkeypatch.setattr(socket, "create_connection", lambda *a, **kw: sock)
    get = protocol.encode_key(b"key")
    scan = protocol.encode_scan(b"a", b"z", 20)
    conn = _PooledConnection("127.0.0.1", 1, None, None, itertools.count(rid))
    assert conn.request(protocol.OP_GET, get, trace).request_id == rid
    endpoint = Endpoint("127.0.0.1", 1)
    endpoint._request_ids = itertools.count(rid)
    reply = endpoint.finish(endpoint.begin(protocol.OP_SCAN, scan, trace))
    assert (reply.opcode, reply.request_id) == (protocol.RESP_OK, rid)
    assert sock.sent == [
        protocol.encode_frame(Message(protocol.OP_GET, rid, get, trace)),
        protocol.encode_frame(Message(protocol.OP_SCAN, rid, scan, trace)),
    ]
    varint = bytes.fromhex(REQUEST_ID_VARINTS[rid])
    for raw in sock.sent:
        assert raw[9:9 + len(varint)] == varint  # after length, crc, opcode
        assert raw[8] & protocol.TRACE_FLAG == (protocol.TRACE_FLAG if trace else 0)


# -- the executor loop's selector traffic ------------------------------------


class CountingSelector(selectors.DefaultSelector):
    """Records every ``modify`` and counts the ``select``s that came back
    with work (``wakes``); ``watched`` is set whenever a socket starts
    being write-watched, ``cleared`` whenever one stops."""

    def __init__(self):
        super().__init__()
        self.modifies: list[int] = []
        self.wakes = 0
        self.watched = threading.Event()
        self.cleared = threading.Event()

    def modify(self, fileobj, events, data=None):
        self.modifies.append(events)
        key = super().modify(fileobj, events, data)
        (self.cleared if events == READ else self.watched).set()
        return key

    def select(self, timeout=None):
        ready = super().select(timeout)
        if ready:
            self.wakes += 1
        return ready


@pytest.fixture
def served(monkeypatch):
    """A ``KVServer`` over an in-memory engine whose loop runs on a
    :class:`CountingSelector` (``served.selector``)."""
    monkeypatch.setattr(selectors, "DefaultSelector", CountingSelector)
    db = DB("/budget", Options(env=MemEnv()))
    try:
        with KVServer(db) as server:
            server.selector = server._loop._io.selector
            yield server
    finally:
        db.close()


def test_steady_state_serving_never_modifies_the_selector(served):
    with KVClient(*served.address) as client:
        for i in range(50):
            client.put(b"key-%03d" % i, b"value-%03d" % i)
        for i in range(500):
            assert client.get(b"key-%03d" % (i % 50)) == b"value-%03d" % (i % 50)
        assert client.scan(b"key-010", None, 3)[0] == (b"key-010", b"value-010")
    assert served.selector.modifies == []


def test_replies_to_a_client_that_is_not_reading_arrive_intact_and_in_order(
    served
):
    value = bytes(range(256)) * 256  # 64 KiB
    count = 128                      # 8 MiB of replies: more than the socket buffers hold
    with KVClient(*served.address) as client:
        client.put(b"big", value)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sock.settimeout(WAIT_S)
        sock.connect(served.address)
        sock.sendall(b"".join(
            protocol.encode_frame(
                Message(protocol.OP_GET, rid, protocol.encode_key(b"big"))
            )
            for rid in range(1, count + 1)
        ))
        # The unsent replies wait in the out-buffer, watched, until read.
        assert served.selector.watched.wait(WAIT_S)
        assert served.selector.modifies == [READ_WRITE]
        reader = FrameReader(sock)
        for rid in range(1, count + 1):
            reply = reader.read()
            assert (reply.opcode, reply.request_id) == (protocol.RESP_VALUE, rid)
            assert protocol.decode_value(reply.payload) == value
        assert served.selector.cleared.wait(WAIT_S)
        assert served.selector.modifies == [READ_WRITE, READ]
    finally:
        sock.close()
