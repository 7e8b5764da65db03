"""Correctness oracle: what every get and scan must return.

Each key has one writer (see ``OpStream.split``), so "the latest version
acked before the read was sent" is exact for the writer's own reads and a
lower bound for another client's.
"""

from __future__ import annotations

import bisect

from gen import Values, key


class Oracle:
    def __init__(self, values: Values):
        self.values = values
        #: key index -> newest acked version (versions start at 1).
        self.latest: dict[int, int] = {}
        self._sorted: list[int] | None = None

    def next_value(self, index: int) -> tuple[int, bytes]:
        version = self.latest.get(index, 0) + 1
        return version, self.values.make(index, version)

    def ack(self, index: int, version: int) -> None:
        if index not in self.latest:
            self._sorted = None
        self.latest[index] = version

    def floor(self, index: int) -> int:
        """Read before sending a get: the version it may not be older than."""
        return self.latest.get(index, 0)

    def check_get(self, index: int, floor: int, value, exact: bool) -> bool:
        if value is None:
            return floor == 0
        parsed = self.values.parse(value)
        if parsed is None or parsed[0] != index:
            return False
        return parsed[1] == floor if exact else parsed[1] >= floor

    def expected_scan(self, start: int, limit: int) -> list[int]:
        """Key indices a scan from ``start`` must return (no deletes run)."""
        if self._sorted is None:
            self._sorted = sorted(self.latest)
        pos = bisect.bisect_left(self._sorted, start)
        return self._sorted[pos:pos + limit]

    def check_scan(
        self, expected: list[int], floors: list[int], pairs, exact: bool
    ) -> bool:
        """Sorted, >= start, <= limit and complete follow from equality
        with ``expected``; every value must parse and be fresh enough."""
        if len(pairs) != len(expected):
            return False
        for index, floor, (raw_key, value) in zip(expected, floors, pairs):
            if raw_key != key(index):
                return False
            if not self.check_get(index, floor, value, exact):
                return False
        return True
