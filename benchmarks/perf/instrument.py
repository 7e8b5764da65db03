"""Measurement from outside the program: spans, and Env/KDS wrappers.

The wrappers are injected through the public ``Options.env`` and
``ShieldOptions.kds`` seams.  They always count; they record spans only
when given a :class:`Tracer` (the traced run).
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.keys.kds import KeyDistributionService

def classify(path: str) -> str:
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".log"):
        return "wal"
    if name.endswith(".sst"):
        return "sst"
    if name.startswith("MANIFEST") or name == "CURRENT":
        return "manifest"
    return "other"


class Tracer:
    """In-memory spans: (id, name, start, end, parent, op id, thread).

    A client thread brackets each call with :meth:`begin`/:meth:`end`;
    wrappers report finished child intervals with :meth:`child`, which are
    parented to the open op span of the same thread, or else to a
    ``bg:<thread>`` root that spans the thread's first to last child.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        #: Child intervals reported while False are dropped, so set-up
        #: and the phases around the main one leave no spans.
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bg_roots: dict[str, list] = {}
        self._lock = threading.Lock()

    def begin(self, op_id: int) -> float:
        local = self._local
        local.span_id = next(self._ids)
        local.op_id = op_id
        local.child_s = 0.0
        local.start = time.perf_counter()
        return local.start

    def end(self, name: str) -> tuple[float, float]:
        """Close the open op span; returns (duration, child-covered time)."""
        end = time.perf_counter()
        local = self._local
        self.spans.append(
            (local.span_id, name, local.start, end, 0, local.op_id,
             threading.current_thread().name)
        )
        local.span_id = 0
        return end - local.start, local.child_s

    def child(self, name: str, start: float, end: float) -> None:
        if not self.enabled:
            return
        local = self._local
        parent = getattr(local, "span_id", 0)
        thread = threading.current_thread().name
        if parent:
            op_id = local.op_id
            local.child_s += end - start
        else:
            op_id = 0
            with self._lock:
                root = self._bg_roots.get(thread)
                if root is None:
                    root = [next(self._ids), start, end]
                    self._bg_roots[thread] = root
                root[2] = max(root[2], end)
            parent = root[0]
        self.spans.append(
            (next(self._ids), name, start, end, parent, op_id, thread)
        )

    def finish(self) -> list[tuple]:
        """All spans, background roots included."""
        roots = [
            (root[0], f"bg:{thread}", root[1], root[2], 0, 0, thread)
            for thread, root in self._bg_roots.items()
        ]
        return roots + self.spans

    def write_jsonl(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "op", "thread")
        with open(path, "w") as out:
            for span in self.finish():
                out.write(json.dumps(dict(zip(fields, span))) + "\n")

    def busy_s(self, prefix: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1].startswith(prefix))


class _Counts:
    """ops/bytes per (operation, file class), safe across threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values: dict[str, int] = {}

    def add(self, op: str, file_class: str, nbytes: int = 0) -> None:
        with self._lock:
            values = self._values
            key = f"{op}.ops.{file_class}"
            values[key] = values.get(key, 0) + 1
            if nbytes:
                key = f"{op}.bytes.{file_class}"
                values[key] = values.get(key, 0) + nbytes

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)


class _CountingWritable(WritableFile):
    def __init__(self, inner, counts: _Counts, file_class: str, tracer):
        self._inner = inner
        self._counts = counts
        self._class = file_class
        self._tracer = tracer

    def append(self, data: bytes) -> None:
        if self._tracer is None:
            self._inner.append(data)
        else:
            start = time.perf_counter()
            self._inner.append(data)
            self._tracer.child(
                f"env.append.{self._class}", start, time.perf_counter()
            )
        self._counts.add("append", self._class, len(data))

    def sync(self) -> None:
        if self._tracer is None:
            self._inner.sync()
        else:
            start = time.perf_counter()
            self._inner.sync()
            self._tracer.child(
                f"env.sync.{self._class}", start, time.perf_counter()
            )
        self._counts.add("sync", self._class)

    def close(self) -> None:
        self._inner.close()

    def tell(self) -> int:
        return self._inner.tell()


class _CountingReadable(RandomAccessFile):
    def __init__(self, inner, counts: _Counts, file_class: str, tracer):
        self._inner = inner
        self._counts = counts
        self._class = file_class
        self._tracer = tracer

    def read(self, offset: int, length: int) -> bytes:
        if self._tracer is None:
            data = self._inner.read(offset, length)
        else:
            start = time.perf_counter()
            data = self._inner.read(offset, length)
            self._tracer.child(
                f"env.read.{self._class}", start, time.perf_counter()
            )
        self._counts.add("read", self._class, len(data))
        return data

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()


class CountingEnv(Env):
    """Counts appends, syncs and reads per file class; spans when traced."""

    def __init__(self, inner: Env, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self.counts = _Counts()

    def new_writable_file(self, path: str) -> WritableFile:
        return _CountingWritable(
            self.inner.new_writable_file(path), self.counts, classify(path),
            self.tracer,
        )

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _CountingReadable(
            self.inner.new_random_access_file(path), self.counts,
            classify(path), self.tracer,
        )

    def delete_file(self, path: str) -> None:
        self.inner.delete_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        self.inner.rename_file(src, dst)

    def file_exists(self, path: str) -> bool:
        return self.inner.file_exists(path)

    def list_dir(self, path: str) -> list[str]:
        return self.inner.list_dir(path)

    def file_size(self, path: str) -> int:
        return self.inner.file_size(path)

    def mkdirs(self, path: str) -> None:
        self.inner.mkdirs(path)


class CountingKDS(KeyDistributionService):
    """Counts KDS round-trips; spans when traced."""

    def __init__(self, inner: KeyDistributionService, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self._lock = threading.Lock()
        self.calls = 0

    def _call(self, name: str, fn, *args):
        with self._lock:
            self.calls += 1
        if self.tracer is None:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.tracer.child(f"kds.{name}", start, time.perf_counter())

    def provision(self, server_id: str, scheme: str = "shake-ctr"):
        return self._call("provision", self.inner.provision, server_id, scheme)

    def fetch(self, server_id: str, dek_id: str):
        return self._call("fetch", self.inner.fetch, server_id, dek_id)

    def retire(self, dek_id: str) -> None:
        return self._call("retire", self.inner.retire, dek_id)
