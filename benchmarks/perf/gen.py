"""The benchmark's own key, value and op-stream generators.

Nothing here comes from ``repro.bench``: a later change to the product's
bench helpers cannot change the workload.  Everything derives from the
seed, and the program under test receives only the generated inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import struct
import zlib
from array import array

from spec import GET, PUT, SCAN, Workload

_HEADER = struct.Struct("<QIH")  # key index, version, total value size
_CRC = struct.Struct("<I")
_POOL_SIZE = 64 * 1024
#: Odd multiplier that spreads zipfian ranks over the keyspace (YCSB's
#: "scrambled" zipfian): the hot keys are not neighbours.
_SCRAMBLE = 2_654_435_761


def key(index: int) -> bytes:
    """16-byte key; byte order equals index order."""
    return b"k%015d" % index


class Values:
    """Self-describing values: key index, version, seeded filler, CRC-32."""

    def __init__(self, seed: int, size: int):
        if size < _HEADER.size + _CRC.size + 1:
            raise ValueError(f"value size {size} too small to self-describe")
        self.size = size
        self._fill = size - _HEADER.size - _CRC.size
        self._pool = random.Random(f"values-{seed}").randbytes(_POOL_SIZE)
        self._span = _POOL_SIZE - self._fill

    def make(self, index: int, version: int) -> bytes:
        start = (index * 131 + version * 31) % self._span
        body = (
            _HEADER.pack(index, version, self.size)
            + self._pool[start:start + self._fill]
        )
        return body + _CRC.pack(zlib.crc32(body))

    def parse(self, value: bytes) -> tuple[int, int] | None:
        """(key index, version) of a well-formed value, else None."""
        if len(value) != self.size:
            return None
        body = value[:-_CRC.size]
        if _CRC.unpack(value[-_CRC.size:])[0] != zlib.crc32(body):
            return None
        index, version, size = _HEADER.unpack_from(body)
        if size != self.size:
            return None
        return index, version


class Zipfian:
    """zipfian(theta) over ``n`` items by inverse-CDF lookup, scrambled."""

    def __init__(self, n: int, theta: float = 0.99):
        self.n = n
        weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
        self._cdf = list(itertools.accumulate(weights))
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random() * self._total)
        return (min(rank, self.n - 1) * _SCRAMBLE) % self.n


class OpStream:
    """A fixed sequence of (op kind, key index) pairs."""

    def __init__(self, kinds: array, indices: array):
        self.kinds = kinds
        self.indices = indices

    def __len__(self) -> int:
        return len(self.kinds)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.kinds.tobytes())
        digest.update(self.indices.tobytes())
        return digest.hexdigest()

    def split(self, parts: int) -> list["OpStream"]:
        """Deal the ops round-robin to ``parts`` clients.  Client ``p``
        only ever puts keys of parity ``p`` (with two clients), so each key
        has one writer and the oracle's "latest acked" is well defined."""
        if parts == 1:
            return [self]
        out = []
        for part in range(parts):
            kinds = self.kinds[part::parts]
            indices = self.indices[part::parts]
            for pos, kind in enumerate(kinds):
                if kind == PUT:
                    index = indices[pos]
                    indices[pos] = index - index % parts + part
            out.append(OpStream(kinds, indices))
        return out


def make_stream(workload: Workload, seed: int, n_ops: int, label: str) -> OpStream:
    """The op stream of one phase; ``label`` separates phases of one seed."""
    rng = random.Random(f"{workload.name}-{label}-{seed}")
    if workload.distribution == "zipfian":
        draw = Zipfian(workload.keyspace).sample
    else:
        keyspace = workload.keyspace

        def draw(r: random.Random) -> int:
            return r.randrange(keyspace)

    get_share, put_share, _scan_share = workload.mix
    kinds = array("B")
    indices = array("q")
    for _ in range(n_ops):
        pick = rng.random()
        if pick < get_share:
            kinds.append(GET)
        elif pick < get_share + put_share:
            kinds.append(PUT)
        else:
            kinds.append(SCAN)
        indices.append(draw(rng))
    return OpStream(kinds, indices)
