"""Secondary indices, and the two decisions both query stores take from them.

* :class:`HashIndex` — O(1) equality lookups,
* :class:`SortedIndex` — binary-searched range lookups.

Indices map column values to *row ids* (a table's stable integers, a
collection's document ids), so they survive in-place updates of other
columns.

Both query languages reduce the AND-ed part of a predicate to one
*sargable* form, :data:`Conjunct` triples ``(column, op, constant)`` with
``op`` in ``= in < <= > >=`` (``in`` carries a list): ``sargable`` in
:mod:`.sql.executor` walks a WHERE tree, ``sargable`` in
:mod:`..document.query` a Mongo-style filter.  :func:`choose_index` is
the access path under SQL base rows and document candidates;
:func:`partition_values` is the pruning decision of the two cluster routers.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterable, KeysView

Conjunct = tuple[str, str, Any]


class HashIndex:
    """Equality index: value -> set of row ids (any hashable id)."""

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Any, set[Any]] = {}

    def insert(self, value: Any, row_id: Any) -> None:
        self._buckets.setdefault(value, set()).add(row_id)

    def remove(self, value: Any, row_id: Any) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> set[Any]:
        return set(self._buckets.get(value, ()))

    def lookup_many(self, values: Iterable[Any]) -> set[Any]:
        result: set[Any] = set()
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


def choose_index(
    index_on: Callable[[str], "HashIndex | SortedIndex | None"],
    conjuncts: Iterable[Conjunct],
) -> tuple[str, set[Any]] | None:
    """``(column, ids)`` from the first conjunct an index can answer, else None.

    ``ids`` ⊇ the rows satisfying that conjunct — the caller re-applies the
    whole predicate.  ``in`` needs a hash index, a range a sorted one.
    """
    for column, op, value in conjuncts:
        index = index_on(column)
        if index is None:
            continue
        if op == "=":
            return column, index.lookup(value)
        if op == "in":
            if index.kind == "hash":
                return column, index.lookup_many(value)
        elif index.kind == "sorted":
            if op in (">", ">="):
                return column, index.range(low=value, low_inclusive=op == ">=")
            return column, index.range(high=value, high_inclusive=op == "<=")
    return None


def partition_values(conjuncts: Iterable[Conjunct], column: str | None) -> list[Any] | None:
    """What the first ``=`` / ``in`` conjunct on *column* pins it to; None if none does."""
    for name, op, value in conjuncts:
        if name == column and op in ("=", "in"):
            return list(value) if op == "in" else [value]
    return None
