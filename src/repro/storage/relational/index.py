"""Secondary indices, and the two decisions both query stores take from them.

* :class:`HashIndex` — O(1) equality lookups,
* :class:`SortedIndex` — binary-searched range lookups,
* :class:`KeyIndex` — one row id per key: a primary key.

Indices map column values to *row ids* (the stable integers a table or a
collection hands out in insertion order), so they survive in-place updates
of other columns, and sorting row ids is putting rows in scan order.

Both query languages reduce the AND-ed part of a predicate to one
*sargable* form, :data:`Conjunct` triples ``(column, op, constant)`` with
``op`` in ``= in < <= > >=`` (``in`` carries a list): ``sargable`` in
:mod:`.sql.executor` walks a WHERE tree, ``sargable`` in
:mod:`..document.query` a Mongo-style filter.  :func:`choose_index` is
the access path under SQL base rows and document candidates;
:func:`partition_values` is the pruning decision of the two cluster routers.

An index answers a conjunct in two steps, so :func:`choose_index` can size
every posting list before it reads one: ``estimate(op, value)`` is how many
row ids ``ids(op, value)`` yields (repeats counted for ``in``), or None when
this index cannot answer *op*; ``ids`` is a read-only iterable.
"""

from __future__ import annotations

import bisect
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, KeysView

Conjunct = tuple[str, str, Any]


class HashIndex:
    """Equality index: value -> the row ids holding it, as a sorted list.

    A list costs 8 B per id where a ``set`` costs 216 B empty and ~45 B per
    id — most buckets of a foreign key hold one or two ids — and rows are
    indexed as they are inserted, so keeping it sorted is an append.
    """

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Any, list[Any]] = {}

    def insert(self, value: Any, row_id: Any) -> None:
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = [row_id]
        elif row_id > bucket[-1]:
            bucket.append(row_id)
        else:  # an update moved an older row to this value
            position = bisect.bisect_left(bucket, row_id)
            if bucket[position] != row_id:
                bucket.insert(position, row_id)

    def extend(self, entries: Iterable[tuple[Any, Any]]) -> None:
        """Insert many ``(value, row_id)`` entries."""
        for value, row_id in entries:
            self.insert(value, row_id)

    def remove(self, value: Any, row_id: Any) -> None:
        bucket = self._buckets.get(value)
        if bucket is None:
            return
        position = bisect.bisect_left(bucket, row_id)
        if position < len(bucket) and bucket[position] == row_id:
            del bucket[position]
            if not bucket:
                del self._buckets[value]

    def estimate(self, op: str, value: Any) -> int | None:
        if op == "=":
            return len(self._buckets.get(value, ()))
        if op == "in":
            return sum(len(self._buckets.get(member, ())) for member in value)
        return None

    def ids(self, op: str, value: Any) -> Iterable[Any]:
        if op == "=":
            return self._buckets.get(value, ())
        return chain.from_iterable(self._buckets.get(member, ()) for member in value)

    def lookup(self, value: Any) -> set[Any]:
        return set(self.ids("=", value))

    def lookup_many(self, values: Iterable[Any]) -> set[Any]:
        return set(self.ids("in", values))

    def keys(self) -> KeysView[Any]:
        """The distinct indexed values (a live view, not a copy)."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class KeyIndex:
    """Unique equality index: key -> the one row id holding it.

    What a primary key needs — a table's, or a collection's ``_id`` — at one
    dict entry per row, where a ``HashIndex`` spends a bucket per row too.
    Uniqueness is the caller's to check (``lookup`` before ``insert``).
    """

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._row_ids: dict[Any, Any] = {}

    def insert(self, value: Any, row_id: Any) -> None:
        self._row_ids[value] = row_id

    def remove(self, value: Any, row_id: Any) -> None:
        if value in self._row_ids and self._row_ids[value] == row_id:
            del self._row_ids[value]

    def get(self, value: Any) -> Any | None:
        """The row id holding *value*, or None."""
        return self._row_ids.get(value)

    def estimate(self, op: str, value: Any) -> int | None:
        if op == "=":
            return 1
        return len(value) if op == "in" else None

    def ids(self, op: str, value: Any) -> Iterable[Any]:
        members = value if op == "in" else (value,)
        return [self._row_ids[member] for member in members if member in self._row_ids]

    def lookup(self, value: Any) -> set[Any]:
        return set(self.ids("=", value))

    def keys(self) -> KeysView[Any]:
        """The distinct indexed values (a live view, not a copy)."""
        return self._row_ids.keys()


class SortedIndex:
    """Range index: a sorted list of ``(*sort key, row_id)`` tuples.

    Over a typed column the sort key is ``(value,)``; NULLs are not indexed,
    so range queries never match them, mirroring SQL comparison semantics.
    Over schemaless values pass *key*: it maps a value to ``(bracket,
    comparable)`` — values order within their bracket only — or to None for
    a value that has no place in the order.  Such values are left out and
    such constants match nothing, and a keyed index answers ranges only:
    values may be equal where their keys are not.

    A sort key is a prefix of its entries, so it bisects to their left with
    no sentinel row id (row ids may be of any type); their right end is
    found by comparing prefixes.
    """

    kind = "sorted"

    def __init__(
        self, column: str, key: Callable[[Any], tuple[int, Any] | None] | None = None
    ) -> None:
        self.column = column
        self._key = key
        self._entries: list[tuple[Any, ...]] = []

    def _sort_key(self, value: Any) -> tuple[Any, ...] | None:
        if self._key is not None:
            return self._key(value)
        return None if value is None else (value,)

    def insert(self, value: Any, row_id: Any) -> None:
        key = self._sort_key(value)
        if key is not None:
            bisect.insort(self._entries, (*key, row_id))

    def extend(self, entries: Iterable[tuple[Any, Any]]) -> None:
        """Insert many ``(value, row_id)`` entries with one sort."""
        keyed = ((self._sort_key(value), row_id) for value, row_id in entries)
        self._entries.extend((*key, row_id) for key, row_id in keyed if key is not None)
        self._entries.sort()

    def remove(self, value: Any, row_id: Any) -> None:
        key = self._sort_key(value)
        if key is None:
            return
        entry = (*key, row_id)
        position = bisect.bisect_left(self._entries, entry)
        if position < len(self._entries) and self._entries[position] == entry:
            self._entries.pop(position)

    def _span(self, op: str, value: Any) -> tuple[int, int]:
        """``[start, stop)`` of the entries satisfying ``column op value``,
        within the constant's bracket (a typed column has one: ``()``)."""
        key, entries = self._sort_key(value), self._entries
        if key is None:
            return 0, 0
        bracket = key[:-1]

        def after(prefix: tuple[Any, ...]) -> int:
            """Past every entry that starts with *prefix*."""
            return bisect.bisect_right(entries, prefix, key=itemgetter(slice(len(prefix))))

        if op in ("=", ">="):
            start = bisect.bisect_left(entries, key)
        elif op == ">":
            start = after(key)
        else:
            start = bisect.bisect_left(entries, bracket)
        if op in ("=", "<="):
            stop = after(key)
        elif op == "<":
            stop = bisect.bisect_left(entries, key)
        else:
            stop = after(bracket)
        return start, max(start, stop)

    def estimate(self, op: str, value: Any) -> int | None:
        if op == "in" or (op == "=" and self._key is not None):
            return None
        start, stop = self._span(op, value)
        return stop - start

    def ids(self, op: str, value: Any) -> Iterable[Any]:
        start, stop = self._span(op, value)
        return [entry[-1] for entry in self._entries[start:stop]]

    def lookup(self, value: Any) -> set[Any]:
        return set(self.ids("=", value))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> set[Any]:
        """Row ids with values in the given (optionally open) range."""
        start, stop = 0, len(self._entries)
        if low is not None:
            start, stop = self._span(">=" if low_inclusive else ">", low)
        if high is not None:
            first, last = self._span("<=" if high_inclusive else "<", high)
            start, stop = max(start, first), min(stop, last)
        return {entry[-1] for entry in self._entries[start:stop]}

    def __len__(self) -> int:
        return len(self._entries)


def choose_index(
    index_on: Callable[[str], Any], conjuncts: Iterable[Conjunct]
) -> tuple[list[str], set[Any]] | None:
    """``(columns, ids)``: the intersection of what every conjunct an index
    can answer selects, and the columns whose indexes answered; None if no
    conjunct has one.

    Every posting list is sized first; the smallest is read into a set and
    the rest narrow it, smallest first (ties in conjunct order).  ``ids`` ⊇
    the rows satisfying the whole predicate — the caller re-applies it.
    Equality takes either index kind, ``in`` a hash index, a range a sorted
    one (each index says so through ``estimate``).
    """
    usable = []
    for column, op, value in conjuncts:
        index = index_on(column)
        size = None if index is None else index.estimate(op, value)
        if size is not None:
            usable.append((size, len(usable), column, index.ids, op, value))
    if not usable:
        return None
    columns = list(dict.fromkeys(entry[2] for entry in usable))
    usable.sort()
    _, _, _, first, op, value = usable[0]
    ids = set(first(op, value))
    for _, _, _, narrow, op, value in usable[1:]:
        if not ids:
            break
        ids.intersection_update(narrow(op, value))
    return columns, ids


def partition_values(conjuncts: Iterable[Conjunct], column: str | None) -> list[Any] | None:
    """What the first ``=`` / ``in`` conjunct on *column* pins it to; None if none does."""
    for name, op, value in conjuncts:
        if name == column and op in ("=", "in"):
            return list(value) if op == "in" else [value]
    return None
