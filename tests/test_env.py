"""Tests for the Env abstraction: LocalEnv, MemEnv (incl. crash semantics),
MeteredEnv, and LatencyEnv."""

import pytest

from repro.env import LocalEnv, MemEnv, MeteredEnv, classify_path
from repro.env.latency import LatencyEnv, LatencyModel
from repro.errors import IOError_
from repro.util.clock import VirtualClock


@pytest.fixture(params=["local", "mem"])
def env(request, tmp_path):
    if request.param == "local":
        local = LocalEnv()
        local.mkdirs(str(tmp_path / "db"))
        return local, str(tmp_path / "db")
    mem = MemEnv()
    mem.mkdirs("/db")
    return mem, "/db"


def test_write_read_roundtrip(env):
    e, root = env
    path = f"{root}/file.sst"
    e.write_file(path, b"hello world")
    assert e.read_file(path) == b"hello world"
    assert e.file_size(path) == 11
    assert e.file_exists(path)


def test_append_and_tell(env):
    e, root = env
    path = f"{root}/file.log"
    with e.new_writable_file(path) as handle:
        handle.append(b"abc")
        handle.append(b"def")
        assert handle.tell() == 6
        handle.sync()
    assert e.read_file(path) == b"abcdef"


def test_random_access_read(env):
    e, root = env
    path = f"{root}/file.sst"
    e.write_file(path, bytes(range(100)))
    with e.new_random_access_file(path) as handle:
        assert handle.read(10, 5) == bytes(range(10, 15))
        assert handle.size() == 100
        assert handle.read(95, 50) == bytes(range(95, 100))  # short read at EOF


def test_concurrent_positioned_reads(env):
    """One shared RandomAccessFile, many threads, distinct offsets.

    Regression for a seek()+read() race in LocalEnv: two threads
    interleaving on the shared handle would both read from the second
    thread's offset, which the engine then reports as block-checksum
    corruption.  Positioned reads must be atomic per call.
    """
    import threading

    e, root = env
    path = f"{root}/file.sst"
    block = 512
    blocks = 64
    data = b"".join(
        bytes([i]) * block for i in range(blocks)
    )
    e.write_file(path, data)
    mismatches = []
    with e.new_random_access_file(path) as handle:
        def reader(seed: int) -> None:
            import random

            rand = random.Random(seed)
            for _ in range(400):
                i = rand.randrange(blocks)
                got = handle.read(i * block, block)
                if got != bytes([i]) * block:
                    mismatches.append(i)

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not mismatches


def test_delete_rename_list(env):
    e, root = env
    e.write_file(f"{root}/a.sst", b"a")
    e.write_file(f"{root}/b.sst", b"b")
    e.rename_file(f"{root}/a.sst", f"{root}/c.sst")
    assert not e.file_exists(f"{root}/a.sst")
    assert e.read_file(f"{root}/c.sst") == b"a"
    assert set(e.list_dir(root)) == {"b.sst", "c.sst"}
    e.delete_file(f"{root}/b.sst")
    assert e.list_dir(root) == ["c.sst"]
    e.delete_file(f"{root}/missing")  # idempotent


def test_missing_file_errors(env):
    e, root = env
    with pytest.raises(IOError_):
        e.new_random_access_file(f"{root}/nope")
    with pytest.raises(IOError_):
        e.file_size(f"{root}/nope")


def test_rename_missing_raises():
    env = MemEnv()
    with pytest.raises(IOError_):
        env.rename_file("/a", "/b")


def test_mem_crash_system_loses_unsynced():
    env = MemEnv()
    handle = env.new_writable_file("/wal.log")
    handle.append(b"synced-part")
    handle.sync()
    handle.append(b"UNSYNCED")
    env.crash_system()
    assert env.read_file("/wal.log") == b"synced-part"


def test_mem_crash_process_keeps_os_buffer():
    env = MemEnv()
    handle = env.new_writable_file("/wal.log")
    handle.append(b"synced")
    handle.sync()
    handle.append(b"-os-buffered")
    env.crash_process()
    assert env.read_file("/wal.log") == b"synced-os-buffered"


def test_mem_write_after_close_rejected():
    env = MemEnv()
    handle = env.new_writable_file("/f")
    handle.close()
    with pytest.raises(IOError_):
        handle.append(b"x")


def test_mem_nested_list_dir():
    env = MemEnv()
    env.write_file("/db/sub/file.sst", b"x")
    env.write_file("/db/top.sst", b"y")
    assert env.list_dir("/db") == ["sub", "top.sst"]


def test_classify_path():
    assert classify_path("/db/000001.log") == "wal"
    assert classify_path("/db/000007.sst") == "sst"
    assert classify_path("/db/MANIFEST-000002") == "manifest"
    assert classify_path("/db/CURRENT") == "manifest"
    assert classify_path("/db/OPTIONS") == "other"


def test_metered_env_counts():
    metered = MeteredEnv(MemEnv())
    metered.write_file("/db/1.sst", b"x" * 100)
    metered.write_file("/db/1.log", b"y" * 50)
    metered.read_file("/db/1.sst")
    assert metered.written_bytes("sst") == 100
    assert metered.written_bytes("wal") == 50
    assert metered.written_bytes() == 150
    assert metered.read_bytes("sst") == 100
    assert metered.read_bytes() == 100
    assert metered.stats.counter("io.write.ops.sst").value == 1


def test_metered_env_passthrough_ops():
    metered = MeteredEnv(MemEnv())
    metered.write_file("/a.sst", b"1")
    metered.rename_file("/a.sst", "/b.sst")
    assert metered.file_exists("/b.sst")
    assert metered.file_size("/b.sst") == 1
    metered.delete_file("/b.sst")
    assert not metered.file_exists("/b.sst")


def test_metered_env_namespace_op_counters():
    metered = MeteredEnv(MemEnv())
    metered.write_file("/db/1.sst", b"1")
    metered.write_file("/db/2.log", b"2")
    metered.rename_file("/db/2.log", "/db/3.log")
    metered.list_dir("/db")
    metered.list_dir("/db")
    metered.delete_file("/db/1.sst")
    assert metered.namespace_ops("rename", "wal") == 1
    assert metered.namespace_ops("delete", "sst") == 1
    assert metered.namespace_ops("list") == 2
    assert metered.stats.counter("io.delete.ops.sst").value == 1
    assert metered.stats.counter("io.rename.ops.wal").value == 1
    assert metered.stats.counter("io.list.ops").value == 2


def test_metered_env_io_time_histograms():
    metered = MeteredEnv(MemEnv())
    with metered.new_writable_file("/db/1.log") as handle:
        handle.append(b"x" * 64)
        handle.sync()
    metered.read_file("/db/1.log")
    snap = metered.stats.snapshot()
    assert snap["io.write_s.wal.count"] >= 1
    assert snap["io.sync_s.wal.count"] == 1
    assert snap["io.read_s.wal.count"] >= 1


def test_latency_model_costs():
    model = LatencyModel(read_op_s=0.001, write_op_s=0.002, bandwidth_bytes_per_s=1000)
    assert model.read_cost(1000) == pytest.approx(1.001)
    assert model.write_cost(0) == pytest.approx(0.002)
    unlimited = LatencyModel()
    assert unlimited.read_cost(10 ** 9) == 0.0


def test_latency_env_charges_clock():
    clock = VirtualClock()
    model = LatencyModel(read_op_s=0.5, write_op_s=1.0, bandwidth_bytes_per_s=100)
    env = LatencyEnv(MemEnv(), model, clock=clock)
    env.write_file("/f.sst", b"x" * 100)  # open(1.0) + append(1.0 + 1.0) + sync(1.0)
    assert clock.now() == pytest.approx(4.0)
    env.read_file("/f.sst")  # open(0.5) + read(0.5 + 1.0)
    assert clock.now() == pytest.approx(6.0)


# -- the forwarding wrappers under every decorator ---------------------------


class _Spy:
    """Delegate to ``target``, recording ``<kind>.<method>`` per call."""

    def __init__(self, target, calls, kind="Env"):
        self._target, self._calls, self._kind = target, calls, kind

    def __enter__(self):  # an unwrapped handle reaches ``with`` as the spy
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self._calls.append(f"{self._kind}.{name}")
            result = attr(*args, **kwargs)
            if name == "new_writable_file":
                return _Spy(result, self._calls, "WritableFile")
            if name == "new_random_access_file":
                return _Spy(result, self._calls, "RandomAccessFile")
            return result

        return call


def _decorators():
    from repro.dist.network import NetworkConfig, NetworkLink
    from repro.dist.remote_env import RemoteEnv, StorageServer
    from repro.encfs import EncryptedEnv
    from repro.env.aligned import AlignedReadEnv
    from repro.env.base import (
        EnvWrapper,
        RandomAccessFileWrapper,
        WritableFileWrapper,
    )
    from repro.env.faulty import FaultInjectionEnv

    class BareWrappers(EnvWrapper):
        """The three bases with nothing overridden but the handle types."""

        def new_writable_file(self, path):
            return WritableFileWrapper(super().new_writable_file(path))

        def new_random_access_file(self, path):
            return RandomAccessFileWrapper(super().new_random_access_file(path))

    return {
        "BareWrappers": BareWrappers,
        "MeteredEnv": MeteredEnv,
        "LatencyEnv": lambda inner: LatencyEnv(inner, LatencyModel(), VirtualClock()),
        "AlignedReadEnv": AlignedReadEnv,
        "FaultInjectionEnv": FaultInjectionEnv,
        "RemoteEnv": lambda inner: RemoteEnv(
            StorageServer(inner), NetworkLink(NetworkConfig(rtt_s=0.0))
        ),
        "EncryptedEnv": lambda inner: EncryptedEnv(inner, b"k" * 32),
    }


def _public_methods(cls):
    return [
        name for name, attr in vars(cls).items()
        if callable(attr) and not name.startswith("_")
    ]


def _interface():
    from repro.env.base import Env, RandomAccessFile, WritableFile

    return [
        (cls.__name__, name)
        for cls in (Env, WritableFile, RandomAccessFile)
        for name in _public_methods(cls)
    ]


#: Sample arguments per interface method.  A method added to an interface
#: needs a row here, which is the point: the test below then proves every
#: decorator forwards it.
_ARGS = {
    "new_writable_file": ("/d/new",),
    "new_random_access_file": ("/d/f",),
    "delete_file": ("/d/f",),
    "rename_file": ("/d/f", "/d/g"),
    "file_exists": ("/d/f",),
    "list_dir": ("/d",),
    "file_size": ("/d/f",),
    "mkdirs": ("/d/sub",),
    "read_file": ("/d/f",),
    "write_file": ("/d/new", b"data"),
    "append": (b"data",),
    "sync": (),
    "close": (),
    "tell": (),
    "read": (0, 4),
    "size": (),
}
#: What the wrapped object sees, where it is not the same call: the two
#: whole-file helpers are built on the decorator's own file handles.
_REACHES = {
    ("Env", "read_file"): "Env.new_random_access_file",
    ("Env", "write_file"): "Env.new_writable_file",
}
#: Answered from the decorator's own state by design: EncFS reports the
#: logical length, which excludes the header it prepended.
_ANSWERED_LOCALLY = {("EncryptedEnv", "WritableFile", "tell")}


@pytest.mark.parametrize("kind,method", _interface())
@pytest.mark.parametrize("decorator", sorted(_decorators()))
def test_every_decorator_forwards_every_interface_method(decorator, kind, method):
    calls = []
    env = _decorators()[decorator](_Spy(MemEnv(), calls))
    env.mkdirs("/d")
    env.write_file("/d/f", b"payload!")
    target = {
        "Env": lambda: env,
        "WritableFile": lambda: env.new_writable_file("/d/new"),
        "RandomAccessFile": lambda: env.new_random_access_file("/d/f"),
    }[kind]()
    calls.clear()
    getattr(target, method)(*_ARGS[method])
    if (decorator, kind, method) in _ANSWERED_LOCALLY:
        assert calls == []
    else:
        assert _REACHES.get((kind, method), f"{kind}.{method}") in calls
