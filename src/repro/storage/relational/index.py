"""Secondary indices for the relational engine.

Two flavors back the query planner's access-path choice:

* :class:`HashIndex` — O(1) equality lookups,
* :class:`SortedIndex` — binary-searched range lookups.

Indices map column values to *row ids* (stable integers assigned by the
table), so they survive in-place updates of other columns.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, KeysView


class HashIndex:
    """Equality index: value -> set of row ids."""

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Any, set[int]] = {}

    def insert(self, value: Any, row_id: int) -> None:
        self._buckets.setdefault(value, set()).add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> set[int]:
        return set(self._buckets.get(value, ()))

    def lookup_many(self, values: Iterable[Any]) -> set[int]:
        result: set[int] = set()
        for value in values:
            result |= self.lookup(value)
        return result

    def keys(self) -> KeysView[Any]:
        """The distinct indexed values (a live view, not a copy)."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex:
    """Range index: a sorted list of (value, row_id) pairs.

    NULLs are not indexed; range queries never match them, mirroring SQL
    comparison semantics.
    """

    kind = "sorted"

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: list[tuple[Any, int]] = []

    def insert(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        bisect.insort(self._entries, (value, row_id))

    def remove(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        position = bisect.bisect_left(self._entries, (value, row_id))
        if position < len(self._entries) and self._entries[position] == (value, row_id):
            self._entries.pop(position)

    def lookup(self, value: Any) -> set[int]:
        return self.range(low=value, high=value, low_inclusive=True, high_inclusive=True)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> set[int]:
        """Row ids with values in the given (optionally open) range."""
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._entries, (low,))
        else:
            start = bisect.bisect_right(self._entries, (low, float("inf")))
        if high is None:
            stop = len(self._entries)
        elif high_inclusive:
            stop = bisect.bisect_right(self._entries, (high, float("inf")))
        else:
            stop = bisect.bisect_left(self._entries, (high,))
        return {row_id for _, row_id in self._entries[start:stop]}

    def __len__(self) -> int:
        return len(self._entries)
