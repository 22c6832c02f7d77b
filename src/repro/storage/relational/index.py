"""Secondary indices, the one value order, and the two decisions both query
stores take from them.

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
this index cannot answer *op*; ``ids`` is a read-only iterable.  And
``exact(op, value)`` says whether those ids are exactly the rows the
conjunct's own test passes, so no candidate is tested on it again: a sorted
range always is, a hash or key ``=`` / ``in`` when every constant equals
itself (a lookup finds a NaN by identity, ``==`` rejects it).  SQL keeps
testing a NULL constant whatever ``exact`` says: ``x = NULL`` is never true.

Both stores order and group values one way: :func:`order_key` places a
value for range operators and sorted indexes, :func:`sort_key` extends it to
the total order every sort reads, and :func:`group_key` is what ``DISTINCT``,
``GROUP BY`` and ``Collection.distinct`` dedupe on.
"""

from __future__ import annotations

import bisect
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, KeysView, Sequence

Conjunct = tuple[str, str, Any]

#: A field a document does not have (``document.query`` resolves paths to it).
MISSING = object()
_NAN = object()  # the one group key of every NaN


def order_key(value: Any) -> tuple[int, Any] | None:
    """Where *value* stands in the order range operators and sorted indexes
    share: numbers (bool included) in one bracket, text in the next, and
    None for anything else.  Values compare within a bracket only, so a
    comparison across brackets — or with a value that has none — is "no
    match", never a ``TypeError``."""
    if isinstance(value, (int, float)):
        return (1, value) if value == value else None  # NaN orders with nothing
    if isinstance(value, str):
        return (2, value)
    return None


def sort_key(value: Any) -> tuple[Any, ...]:
    """The total order every sort reads: None and a missing field first,
    then :func:`order_key`'s numbers and text, then every value it leaves
    out (NaN, containers), tied — so a stable sort keeps those in scan order."""
    key = order_key(value)
    if key is not None:
        return key
    return (0,) if value is None or value is MISSING else (3,)


def group_key(value: Any) -> Any:
    """A hashable stand-in for *value*: two keys are equal exactly when the
    values are ``==`` (``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``,
    ``[1]`` and ``[1.0]``, ``1`` and ``True``), except that every NaN shares
    one key."""
    if isinstance(value, float):
        return value if value == value else _NAN
    if isinstance(value, dict):
        return dict, frozenset((name, group_key(item)) for name, item in value.items())
    if isinstance(value, (set, frozenset)):
        return set, frozenset(map(group_key, value))
    if isinstance(value, (list, tuple)):
        return (list if isinstance(value, list) else tuple), tuple(map(group_key, value))
    return value


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
        """Insert ``(value, row_id)`` pairs, ids past every id held: appends, none for MISSING."""
        buckets = self._buckets
        for value, row_id in entries:
            if value is MISSING:
                continue
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = [row_id]
            else:
                bucket.append(row_id)

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

    def exact(self, op: str, value: Any) -> bool:
        """Unless a constant is not equal to itself (NaN), which a lookup finds."""
        return all(member == member for member in value) if op == "in" else value == value

    def keys(self) -> KeysView[Any]:
        """The distinct indexed values (a live view, not a copy)."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class KeyIndex:
    """Unique equality index: key -> the one row id holding it.

    What a primary key needs — a table's, or a collection's ``_id`` — at one
    dict entry per row, where a ``HashIndex`` spends a bucket per row too.
    Uniqueness is the caller's to check (``get`` before ``insert``).
    """

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._row_ids: dict[Any, Any] = {}

    def insert(self, value: Any, row_id: Any) -> None:
        self._row_ids[value] = row_id

    def claim(self, values: list[Any], row_ids: list[Any]) -> int:
        """Key each of *values* to its row id, up to the first one held
        already or earlier in *values*; returns how many were keyed."""
        held = self._row_ids
        if len(values) > 1 and held.keys().isdisjoint(values) and len(set(values)) == len(values):
            held.update(zip(values, row_ids))  # one C-level pass
            return len(values)
        for claimed, value in enumerate(values):
            if value in held:
                return claimed
            held[value] = row_ids[claimed]
        return len(values)

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

    exact = HashIndex.exact

    def keys(self) -> KeysView[Any]:
        """The distinct indexed values (a live view, not a copy)."""
        return self._row_ids.keys()


class SortedIndex:
    """Range index: a sorted list of ``(*order_key(value), row_id)`` tuples.

    Values with no :func:`order_key` (NULL, NaN, containers) are left out,
    and values compare within their bracket only.  It answers ranges only —
    values may be equal where their keys are not (``Decimal(1) == 1``), so
    equality is a hash or key index's job — and declines (``estimate`` →
    None) a constant whose bracket holds none of its entries: there only a
    scan knows the answer, which in SQL is a ``TypeError`` for an ill-typed
    constant, and an index must not change an answer.

    A key is a prefix of its entries, so it bisects to their left with no
    sentinel row id (row ids may be of any type); their right end is found
    by comparing prefixes.
    """

    kind = "sorted"

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: list[tuple[Any, ...]] = []

    def insert(self, value: Any, row_id: Any) -> None:
        key = order_key(value)
        if key is not None:
            bisect.insort(self._entries, (*key, row_id))

    def extend(self, entries: Iterable[tuple[Any, Any]]) -> None:
        """Insert many ``(value, row_id)`` entries: a batch small next to the
        index one by one (a sort compares every entry), a larger with one sort."""
        keyed = [(*key, row_id) for value, row_id in entries if (key := order_key(value))]
        if len(keyed) * 32 < len(self._entries):
            for entry in keyed:
                bisect.insort(self._entries, entry)
        else:
            self._entries += keyed
            self._entries.sort()

    def remove(self, value: Any, row_id: Any) -> None:
        key = order_key(value)
        if key is None:
            return
        entry = (*key, row_id)
        position = bisect.bisect_left(self._entries, entry)
        if position < len(self._entries) and self._entries[position] == entry:
            self._entries.pop(position)

    def _span(self, op: str, value: Any) -> tuple[int, int] | None:
        """``[start, stop)`` of the entries satisfying ``column op value``,
        or None when the constant's bracket holds no entry."""
        key, entries = order_key(value), self._entries
        if key is None:
            return None

        def after(prefix: tuple[Any, ...]) -> int:
            """Past every entry that starts with *prefix*."""
            return bisect.bisect_right(entries, prefix, key=itemgetter(slice(len(prefix))))

        low, high = bisect.bisect_left(entries, key[:1]), after(key[:1])
        if low == high:
            return None
        if op == ">=":
            return bisect.bisect_left(entries, key, low, high), high
        if op == ">":
            return after(key), high
        if op == "<=":
            return low, after(key)
        return low, bisect.bisect_left(entries, key, low, high)

    def estimate(self, op: str, value: Any) -> int | None:
        span = None if op in ("=", "in") else self._span(op, value)
        return None if span is None else span[1] - span[0]

    def ids(self, op: str, value: Any) -> Iterable[Any]:
        start, stop = self._span(op, value) or (0, 0)
        return [entry[-1] for entry in self._entries[start:stop]]

    def exact(self, op: str, value: Any) -> bool:
        """Always: a value out of the constant's bracket fails the range too."""
        return True

    def __len__(self) -> int:
        return len(self._entries)


def choose_index(
    index_on: Callable[[str], Any], conjuncts: Sequence[Conjunct]
) -> tuple[list[str], set[Any], set[int]] | None:
    """``(columns, ids, exact)``: the intersection of what every conjunct an
    index can answer selects, the columns whose indexes answered, and the
    positions of the conjuncts answered exactly; None if no conjunct has one.

    Every posting list is sized first; the smallest is read into a set and
    the rest narrow it, smallest first (ties in conjunct order).  ``ids`` ⊇
    the rows satisfying the whole predicate, and each passes the conjuncts
    in ``exact`` — the caller tests the rest.  Equality takes either index
    kind, ``in`` a hash index, a range a sorted one (each index says so
    through ``estimate``).
    """
    usable = []
    for position, (column, op, value) in enumerate(conjuncts):
        index = index_on(column)
        size = None if index is None else index.estimate(op, value)
        if size is not None:
            usable.append((size, position, column, index, op, value))
    if not usable:
        return None
    columns = list(dict.fromkeys(entry[2] for entry in usable))
    exact = {position for _, position, _, index, op, value in usable if index.exact(op, value)}
    usable.sort()
    _, _, _, first, op, value = usable[0]
    ids = set(first.ids(op, value))
    for _, _, _, narrow, op, value in usable[1:]:
        if not ids:
            break
        ids.intersection_update(narrow.ids(op, value))
    return columns, ids, exact


def partition_values(conjuncts: Iterable[Conjunct], column: str | None) -> list[Any] | None:
    """What the first ``=`` / ``in`` conjunct on *column* pins it to; None if none does."""
    for name, op, value in conjuncts:
        if name == column and op in ("=", "in"):
            return list(value) if op == "in" else [value]
    return None
