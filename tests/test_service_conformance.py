"""Differential conformance: one scripted session, every deployment shape.

The same requests go to ``KVServer(DB)``, ``KVServer(ShardedDB, 2)``,
a ``KVClient`` over a list of two ``KVServer``s and a ``KVClient`` over
``MultiProcessKVServer(2)``, which finds the workers and sends every
request to the owning one itself.  Every shape must give the same decoded
answers, and the two servers must put the same bytes on the wire as they
did before the serving core was unified: ``GOLDEN`` holds the reply
frames recorded at the parent commit (``python
tests/test_service_conformance.py`` prints the table from the current
tree).  STATS and HEALTH bodies are JSON and are compared decoded.

The multi-process front-end is a directory: it serves no data request,
so it takes no raw session.  What it does answer -- the topology
exchange, and the authentication gate in front of it -- is pinned
separately.
"""

import contextlib
import socket

import pytest

from repro.dist.sharding import ShardedDB, shard_for_key
from repro.env.mem import MemEnv
from repro.errors import ReproError
from repro.keys.kds import SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol as p
from repro.service.client import KVClient
from repro.service.server import KVServer, ServiceConfig
from repro.service.workers import MultiProcessKVServer

UNKNOWN_OPCODE = 30
SERVER_SHAPES = ("threaded-db", "threaded-sharded")
SHAPES = SERVER_SHAPES + ("sharded-client", "routed-client")
STATS_SECTIONS = {
    "server", "engine", "crypto", "integrity", "replication",
    "committed_sequence", "health", "obs",
}


def _batch() -> bytes:
    batch = WriteBatch()
    for key in (b"echo", b"foxtrot", b"india", b"lima"):
        batch.put(key, b"v-" + key)
    batch.delete(b"charlie")
    return batch.serialize(0)


#: (step name, opcode, payload) -- the main session, in order.
SESSION = [
    ("ping", p.OP_PING, b""),
    ("put-alpha", p.OP_PUT, p.encode_put(b"alpha", b"v-alpha")),
    ("put-bravo", p.OP_PUT, p.encode_put(b"bravo", b"v-bravo")),
    ("put-charlie", p.OP_PUT, p.encode_put(b"charlie", b"v-charlie")),
    ("put-delta", p.OP_PUT, p.encode_put(b"delta", b"v-delta")),
    ("get-hit", p.OP_GET, p.encode_key(b"alpha")),
    ("get-miss", p.OP_GET, p.encode_key(b"zulu")),
    ("delete", p.OP_DELETE, p.encode_key(b"bravo")),
    ("get-deleted", p.OP_GET, p.encode_key(b"bravo")),
    ("write-batch", p.OP_WRITE_BATCH, _batch()),
    ("scan-all", p.OP_SCAN, p.encode_scan(b"", None, None)),
    ("scan-limit", p.OP_SCAN, p.encode_scan(b"", None, 3)),
    ("scan-range", p.OP_SCAN, p.encode_scan(b"c", b"g", None)),
    ("scan-limit-0", p.OP_SCAN, p.encode_scan(b"", None, 0)),
    ("flush", p.OP_FLUSH, b""),
    ("compact", p.OP_COMPACT, b""),
    ("get-after-compact", p.OP_GET, p.encode_key(b"alpha")),
    ("health", p.OP_HEALTH, b""),
    ("stats", p.OP_STATS, b""),
    ("unknown-opcode", UNKNOWN_OPCODE, b""),
    # Last: on a single-DB server the connection turns into a stream.
    ("repl-subscribe", p.OP_REPL_SUBSCRIBE,
     p.encode_repl_subscribe("replica-1", 0)),
]

#: Steps added after the session's frames were recorded, with the request
#: id each goes out under: past every recorded step's, so no recorded
#: frame moves.  Every other step's id is its place among the rest.
LATE_STEP_IDS = {"scan-limit-0": 21}

#: The session against a ``require_auth`` server; AUTH steps are driven
#: through ``server_id`` on the client shape.
AUTH_SESSION = [
    ("unauthenticated-get", p.OP_GET, p.encode_key(b"alpha")),
    ("unauthenticated-ping", p.OP_PING, b""),
    ("auth-rejected", p.OP_AUTH, p.encode_auth("impostor")),
    ("auth-accepted", p.OP_AUTH, p.encode_auth("good-client")),
    ("authenticated-get", p.OP_GET, p.encode_key(b"alpha")),
]

#: Reply frames recorded at the parent commit, identical on every server.
GOLDEN = {
    "ping": "060000009305c7168001",
    "get-hit": "0e0000008c4e2c31810607762d616c706861",
    "get-miss": "06000000e896ae9d8207",
    "get-deleted": "06000000384ea7438209",
    "scan-all": (
        "5b00000005851594830b0605616c70686107762d616c7068610564656c7461"
        "07762d64656c7461046563686f06762d6563686f07666f7874726f7409762d"
        "666f7874726f7405696e64696107762d696e646961046c696d6106762d6c69"
        "6d61"
    ),
    "scan-limit": (
        "2f000000a3fb518e830c0305616c70686107762d616c7068610564656c7461"
        "07762d64656c7461046563686f06762d6563686f"
    ),
    "scan-range": (
        "33000000e1de9ee3830d030564656c746107762d64656c7461046563686f06"
        "762d6563686f07666f7874726f7409762d666f7874726f74"
    ),
    # No pair, in every shape: a limit of 0 returned one pair from
    # KVServer(DB) before it meant "none" everywhere.
    "scan-limit-0": "07000000e74141d8831500",
    "flush": "060000009d26eaf1800e",
    "compact": "06000000a3c0ced0800f",
    "get-after-compact": "0e000000d8c6e19b811007762d616c706861",
    "unknown-opcode": (
        "2d000000c75cc1b7851314496e76616c6964417267756d656e744572726f72"
        "11756e6b6e6f776e206f70636f6465203330"
    ),
    "unauthenticated-get": (
        "4a00000070bbaaf1850112417574686f72697a6174696f6e4572726f723063"
        "6f6e6e656374696f6e206973206e6f742061757468656e746963617465643b"
        "2073656e642041555448206669727374"
    ),
    # Re-recorded for the multi-process front-end, which answered RESP_OK
    # ("060000008113b4798002") before its authentication gate at the parent;
    # every server now refuses, with KVServer's bytes.
    "unauthenticated-ping": (
        "4a0000003d832fed850212417574686f72697a6174696f6e4572726f723063"
        "6f6e6e656374696f6e206973206e6f742061757468656e746963617465643b"
        "2073656e642041555448206669727374"
    ),
    "auth-rejected": (
        "480000000f30df5f850312417574686f72697a6174696f6e4572726f722e73"
        "65727665722027696d706f73746f7227206973206e6f7420617574686f7269"
        "7a656420627920746865204b4453"
    ),
    "auth-accepted": "0600000046e5dd3f8004",
    "authenticated-get": "06000000e45af5db8205",
}

#: Write acknowledgements carry the engine's committed sequence.  The
#: subscribe answer is per shape by design.
_ONE_ENGINE = {
    "put-alpha": "0e0000007eba623580020100000000000000",
    "put-bravo": "0e00000026e7215880030200000000000000",
    "put-charlie": "0e000000b098b41180040300000000000000",
    "put-delta": "0e0000007c8108f880050400000000000000",
    "delete": "0e00000047d89a3c80080500000000000000",
    "write-batch": "0e0000009bedc490800a0a00000000000000",
}
GOLDEN_BY_SHAPE = {
    "threaded-db": {
        **_ONE_ENGINE,
        # The plaintext stream's envelope (log v2, no scheme, no DEK), then
        # the committed sequence; it was scheme, DEK-ID and nonce fields.
        "repl-subscribe": (
            "1b00000090d9328990144c534d46020100000027622d550a00000000000000"
        ),
    },
    # The one deliberate difference from the parent commit: ShardedDB had
    # no committed_sequence(), so these six acks carried sequence 0; it now
    # sums its shards and acks exactly like one engine.
    "threaded-sharded": {
        **_ONE_ENGINE,
        "repl-subscribe": (
            "4e00000018d37762851414496e76616c6964417267756d656e744572726f"
            "72327468697320736572766572277320656e67696e6520646f6573206e6f"
            "7420737570706f72742057414c207368697070696e67"
        ),
    },
}


# -- the deployment shapes ---------------------------------------------------


def _open_db(path):
    return DB(path, Options(env=MemEnv(), write_buffer_size=64 * 1024))


def _make_shard(index, path):
    return _open_db(path)


@contextlib.contextmanager
def _shape(name, tmp_path, config=None):
    """Start one deployment shape; yield its server address(es)."""
    config = config or ServiceConfig()
    with contextlib.ExitStack() as stack:
        if name == "threaded-db":
            db = _open_db("/conf-db")
            stack.callback(db.close)
            servers = [stack.enter_context(KVServer(db, config))]
        elif name == "threaded-sharded":
            cluster = ShardedDB("/conf-cluster", 2, _make_shard)
            stack.callback(cluster.close)
            servers = [stack.enter_context(KVServer(cluster, config))]
        elif name in ("multiprocess", "routed-client"):
            servers = [stack.enter_context(MultiProcessKVServer(
                str(tmp_path / "mp"), 2, _make_shard, config
            ))]
        else:
            servers = []
            for index in range(2):
                db = _open_db(f"/conf-ep-{index}")
                stack.callback(db.close)
                servers.append(stack.enter_context(KVServer(db, config)))
        yield [server.address for server in servers]


def _canonical(reply: p.Message):
    """A reply message as the answer a caller sees."""
    if reply.opcode == p.RESP_OK:
        return ("ok",)
    if reply.opcode == p.RESP_VALUE:
        return ("value", p.decode_value(reply.payload))
    if reply.opcode == p.RESP_NOT_FOUND:
        return ("value", None)
    if reply.opcode == p.RESP_PAIRS:
        return ("pairs", p.decode_pairs(reply.payload))
    if reply.opcode == p.RESP_STATS:
        return ("json", p.decode_stats(reply.payload))
    if reply.opcode == p.RESP_REPL_ACCEPT:
        return ("repl-accept",)
    assert reply.opcode == p.RESP_ERROR, reply
    exc = p.decode_error(reply.payload)
    return ("error", type(exc).__name__, str(exc))


def _read_reply(sock, splitter: p.FrameSplitter) -> tuple[str, p.Message]:
    """The next reply frame off the socket, as ``(raw hex, message)``: the
    recorded hex needs the raw reply bytes, which ``FrameReader`` does not
    hand out, so this is the splitter under it, fed by hand."""
    while (frame := splitter.next_frame()) is None:
        chunk = sock.recv(p.RECV_SIZE)
        assert chunk, "server closed mid-reply"
        splitter.feed(chunk)
    frame.verify()
    return frame.raw.hex(), frame.message()


def _run_raw(address, session):
    """Send each step as a frame; return ``{step: (frame_hex, answer)}``."""
    out = {}
    splitter = p.FrameSplitter()
    rids = iter(range(1, len(session) + 1))
    with socket.create_connection(address, timeout=10.0) as sock:
        for step, opcode, payload in session:
            rid = LATE_STEP_IDS.get(step) or next(rids)
            p.send_message(sock, p.Message(opcode, rid, payload))
            raw_hex, reply = _read_reply(sock, splitter)
            assert reply.request_id == rid
            out[step] = (raw_hex, _canonical(reply))
    return out


def _call(client, opcode, payload):
    """One step through a client's public surface."""
    if opcode == p.OP_PING:
        return client.ping() or ("ok",)
    if opcode == p.OP_PUT:
        return client.put(*p.decode_put(payload)) or ("ok",)
    if opcode == p.OP_DELETE:
        return client.delete(p.decode_key(payload)) or ("ok",)
    if opcode == p.OP_WRITE_BATCH:
        return client.write(WriteBatch.deserialize(payload)[1]) or ("ok",)
    if opcode == p.OP_FLUSH:
        return client.flush() or ("ok",)
    if opcode == p.OP_COMPACT:
        return client.compact_range() or ("ok",)
    if opcode == p.OP_GET:
        return ("value", client.get(p.decode_key(payload)))
    if opcode == p.OP_SCAN:
        return ("pairs", client.scan(*p.decode_scan(payload)))
    if opcode == p.OP_HEALTH:
        return ("json", client.health())
    if opcode == p.OP_STATS:
        return ("json", client.stats())
    # No client method: send the raw request to one endpoint.
    endpoint = client.owner(b"alpha") if client.home is None else None
    return _canonical(client.request(opcode, payload, endpoint))


def _run_client(client, session):
    out = {}
    with client:
        for step, opcode, payload in session:
            try:
                out[step] = (None, _call(client, opcode, payload))
            except ReproError as exc:
                out[step] = (None, ("error", type(exc).__name__, str(exc)))
    return out


def _run(name, tmp_path, session=SESSION, config=None, **client_kwargs):
    with _shape(name, tmp_path, config) as addresses:
        client_kwargs["max_retries"] = 0
        if name == "sharded-client":
            return _run_client(KVClient.over(addresses, **client_kwargs), session)
        if name == "routed-client":
            return _run_client(KVClient(*addresses[0], **client_kwargs), session)
        return _run_raw(addresses[0], session)


# -- the tests ---------------------------------------------------------------


def test_batch_in_session_spans_both_shards():
    keys = [key for __, key, __v in WriteBatch.deserialize(_batch())[1].items()]
    assert {shard_for_key(key, 2) for key in keys} == {0, 1}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return {
        name: _run(name, tmp_path_factory.mktemp(name)) for name in SHAPES
    }


def test_every_shape_gives_the_same_answers(results):
    reference = results["threaded-db"]
    for name in SHAPES:
        for step, __, __payload in SESSION:
            if step in ("stats", "repl-subscribe"):
                continue
            assert results[name][step][1] == reference[step][1], (name, step)


def test_stats_have_the_same_layout_and_totals_in_every_shape(results):
    for name in SHAPES:
        kind, stats = results[name]["stats"][1]
        assert kind == "json"
        assert STATS_SECTIONS <= set(stats), (name, sorted(stats))
        # 4 puts + 1 delete + a 5-entry batch, however they were sharded.
        assert stats["committed_sequence"] == 10, name
        assert stats["health"]["state"] == "healthy"
        assert stats["engine"]["db.last_sequence"] == 10, name
        assert set(stats["integrity"]) >= {
            "integrity.auth_ok_total", "integrity.auth_fail_total",
            "integrity.quarantined_files",
        }, name


def test_only_a_single_db_server_streams_replication(results):
    for name in SHAPES:
        answer = results[name]["repl-subscribe"][1]
        if name in ("threaded-db", "sharded-client"):
            assert answer == ("repl-accept",), name
        else:
            assert answer[:2] == ("error", "InvalidArgumentError"), name


@pytest.mark.parametrize("name", SERVER_SHAPES)
def test_reply_frames_match_the_parent_commit(results, name):
    golden = {**GOLDEN, **GOLDEN_BY_SHAPE[name]}
    for step, __, __payload in SESSION:
        if step not in ("stats", "health"):
            assert results[name][step][0] == golden[step], (name, step)


def test_scan_limit_0_returns_no_pair_in_every_shape(results):
    """``limit=0`` is "no pairs" everywhere: ``KVServer(DB)`` used to answer
    one pair, the front-end and both client shapes none."""
    for name in SHAPES:
        assert results[name]["scan-limit-0"][1] == ("pairs", []), name
    for name in SERVER_SHAPES:
        assert results[name]["scan-limit-0"][0] == GOLDEN["scan-limit-0"], name


#: The topology exchange, pinned: the request, the answer of a server with
#: nothing behind it, and the layout of an answer that lists two endpoints.
TOPOLOGY_REQUEST = "06000000ae1f4e7d0c01"
TOPOLOGY_EMPTY = "07000000b7f9288a800100"
TOPOLOGY_TWO_ENDPOINTS = (
    "21000000f100f5cc800102093132372e302e302e31c1b802093132372e302e302e31"
    "c2b802"
)


def _ask_topology(address) -> tuple[str, list]:
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(bytes.fromhex(TOPOLOGY_REQUEST))
        raw_hex, reply = _read_reply(sock, p.FrameSplitter())
    assert (reply.opcode, reply.request_id) == (p.RESP_OK, 1)
    return raw_hex, p.decode_topology(reply.payload)


def test_topology_exchange_in_every_server_shape(tmp_path):
    assert p.encode_frame(p.Message(p.OP_TOPOLOGY, 1)).hex() == TOPOLOGY_REQUEST
    assert p.encode_frame(p.Message(p.RESP_OK, 1, p.encode_topology(
        [("127.0.0.1", 40001), ("127.0.0.1", 40002)]
    ))).hex() == TOPOLOGY_TWO_ENDPOINTS
    for name in ("threaded-db", "threaded-sharded"):
        with _shape(name, tmp_path / name) as addresses:
            assert _ask_topology(addresses[0]) == (TOPOLOGY_EMPTY, []), name
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _make_shard) as server:
        workers = server.worker_addresses
        assert len(set(workers)) == 2 and server.address not in workers
        frame, endpoints = _ask_topology(server.address)
        assert endpoints == workers  # shard order
        assert frame == p.encode_frame(
            p.Message(p.RESP_OK, 1, p.encode_topology(workers))
        ).hex()
        for address in workers:  # a worker is a leaf, like a threaded server
            assert _ask_topology(address) == (TOPOLOGY_EMPTY, [])


def test_topology_is_behind_the_authentication_gate(tmp_path):
    for name in SERVER_SHAPES + ("multiprocess",):
        session = [("topology", p.OP_TOPOLOGY, b"")]
        got = _run(name, tmp_path / name, session, _auth_config())
        assert got["topology"][1] == (
            "error", "AuthorizationError",
            "connection is not authenticated; send AUTH first",
        ), name


def _auth_config():
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("good-client")
    return ServiceConfig(require_auth=True, kds=kds)


def test_auth_decisions_are_the_same_in_every_shape(tmp_path):
    expected = None
    for name in SERVER_SHAPES:
        got = _run(name, tmp_path / name, AUTH_SESSION, _auth_config())
        golden = {**GOLDEN, **GOLDEN_BY_SHAPE[name]}
        for step, __, __payload in AUTH_SESSION:
            assert got[step][0] == golden[step], (name, step)
        answers = {step: answer for step, (__, answer) in got.items()}
        expected = expected or answers
        assert answers == expected, name
    assert expected["unauthenticated-get"][:2] == ("error", "AuthorizationError")
    assert expected["unauthenticated-ping"] == expected["unauthenticated-get"]
    assert expected["auth-rejected"][:2] == ("error", "AuthorizationError")
    assert expected["auth-accepted"] == ("ok",)
    assert expected["authenticated-get"] == ("value", None)

    # The client shapes authenticate while connecting.
    gets = [step for step in AUTH_SESSION if step[1] == p.OP_GET][:1]
    for name in ("sharded-client", "routed-client"):
        for server_id, answer in (
            (None, expected["unauthenticated-get"]),
            ("impostor", expected["auth-rejected"]),
            ("good-client", expected["authenticated-get"]),
        ):
            got = _run(name, tmp_path / f"{name}-{server_id}", gets,
                       _auth_config(), server_id=server_id)
            assert got["unauthenticated-get"][1] == answer, (name, server_id)


if __name__ == "__main__":
    import pathlib
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        frames = {}
        for name in SERVER_SHAPES:
            runs = {
                **_run(name, tmp / name),
                **_run(name, tmp / f"{name}-auth", AUTH_SESSION, _auth_config()),
            }
            frames[name] = {step: frame for step, (frame, __) in runs.items()
                            if step not in ("stats", "health")}
    common = {
        step: frame for step, frame in frames["threaded-db"].items()
        if all(frames[name][step] == frame for name in SERVER_SHAPES)
    }
    print("GOLDEN =", pprint.pformat(common, width=100))
    print("GOLDEN_BY_SHAPE =", pprint.pformat({
        name: {step: frame for step, frame in frames[name].items()
               if step not in common}
        for name in SERVER_SHAPES
    }, width=100))
