"""Tables: schema-validated row storage with secondary indices, over the
row heap both query stores keep their rows in."""

from __future__ import annotations

import itertools
import threading
from itertools import islice, repeat
from operator import getitem, length_hint
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ...errors import SchemaError, StorageError
from ..schema import TableSchema
from .index import MISSING, Conjunct, HashIndex, KeyIndex, SortedIndex, choose_index

#: Process-wide write stamps, so no two heap states ever share a version.
_STAMPS = itertools.count(1)

Row = dict[str, Any]
#: A predicate's test left once an index answered the conjuncts at the given
#: positions exactly: a row test, or None when nothing is left.
Residual = Callable[[set[int]], Callable[[Row], Any] | None]
#: A row test, or ``(conjuncts, residual)``: what ``Table.update`` / ``delete`` match.
Predicate = Callable[[Row], Any] | tuple[Sequence[Conjunct], Residual]


class Selection(NamedTuple):
    rows: list[Row]
    examined: int  # candidates read
    tested: int  # candidates a residual test ran on
    fields: list[str]  # the indexed fields that chose them (none: a scan)


def residual_of(clauses: Sequence[tuple[set[int] | None, Callable[..., Any]]]) -> Residual:
    """The :data:`Residual` of the AND of *clauses* ``(answers, test)``, each
    dropped once the conjuncts at *answers* (None: none) were answered.  The
    rest run as SQL's AND: in order, stopping at a falsy result; a None
    (NULL) fails the row but runs on, so a later clause raises where it did.
    The test left takes what each clause's test takes."""

    def residual(exact: set[int]) -> Callable[..., Any] | None:
        kept = [test for answers, test in clauses if answers is None or not answers <= exact]

        def passes(*subject: Any) -> bool:
            passed = True
            for test in kept:
                value = test(*subject)
                if value is None:
                    passed = False
                elif not value:
                    return False
            return passed

        # callers read the test as a truth value, so one clause is its own test
        return None if not kept else kept[0] if len(kept) == 1 else passes

    return residual


_KINDS = {"hash": HashIndex, "sorted": SortedIndex}


class RowHeap:
    """The row layout under a ``Table`` and a ``Collection``.

    Rows live under int row ids handed out in insertion order, so sorting
    row ids *is* scan order, and every index maps values to row ids: the one
    optional unique *key* (a table's primary key, a collection's ``_id``)
    and the secondary ones.  A stored row is never mutated — ``replace``
    swaps in a new dict — so ``select`` hands its read-only callers the
    stored rows themselves.  Reads and writes take a predicate as sargable
    *conjuncts* and a :data:`Residual`, so a candidate is tested only on what
    the indexes that chose it did not answer exactly.  ``version`` is
    re-stamped by every write that changes a row: equal versions mean equal
    rows (what a memo keys on).

    *read* ``(row, field)`` is the value an index on *field* keys a row
    under, or ``MISSING`` for a row it leaves out; *duplicate* ``(key)`` is
    the message refusing a key another row holds.
    """

    def __init__(
        self, key: str | None, duplicate: Callable[[Any], str], read: Callable = getitem
    ) -> None:
        self.key = key
        self._duplicate = duplicate
        self._read = read
        self._rows: dict[int, Row] = {}
        self._next_row_id = 0
        self._indexes: dict[str, HashIndex | KeyIndex | SortedIndex] = {}
        if key is not None:
            self._indexes[key] = KeyIndex(key)
        self._lock = threading.RLock()
        self.version = next(_STAMPS)

    def __len__(self) -> int:
        return len(self._rows)

    def insert(self, row: Row) -> int:
        """Store *row*: :meth:`insert_many`'s one-row case; returns its row id."""
        return self.insert_many((row,))[0]

    def insert_many(self, rows: Iterable[Row]) -> list[int]:
        """Store *rows* (kept: pass dicts no one else holds) under one lock, key
        check and version stamp; their row ids.  A row is refused where a loop
        would refuse it — a key held, or *rows* raising — and those before it stay."""
        with self._lock:
            batch: list[Row] = []
            refused: Exception | None = None  # raised once the rows before it are stored
            try:
                batch.extend(rows)
            except Exception as error:
                refused = error
            key, start = self.key, self._next_row_id
            # one int object per row id, shared by _rows and every index
            row_ids = list(range(start, start + len(batch)))
            if key is not None:
                keys = [row[key] for row in batch]
                claimed = self._indexes[key].claim(keys, row_ids)
                if claimed < len(batch):
                    refused = StorageError(self._duplicate(keys[claimed]))
                    del batch[claimed:], row_ids[claimed:]
            if batch:
                self._next_row_id = start + len(batch)
                self._rows.update(zip(row_ids, batch))
                self.version = next(_STAMPS)
                for field, index in self._indexes.items():
                    if field != key:  # (value, row_id) pairs; an index skips MISSING
                        index.extend(zip(map(self._read, batch, repeat(field)), row_ids))
            if refused is not None:
                raise refused
            return row_ids

    def replace(self, conjuncts: Sequence[Conjunct], residual: Residual, change: Callable) -> int:
        """Swap every matching row for ``change(row)``, each matched and
        changed as it was before the call; returns how many.  Only the index
        entries whose value changed move, and a key another row holds is
        refused there: the rows before it stay replaced, as an INSERT's do."""
        with self._lock:
            matched = self._matching(conjuncts, residual)
            key, read = self.key, self._read
            for row_id in matched:
                old = self._rows[row_id]
                new = change(old)
                if key is not None and self._indexes[key].get(new[key]) not in (None, row_id):
                    raise StorageError(self._duplicate(new[key]))
                for field, index in self._indexes.items():
                    before, after = read(old, field), read(new, field)
                    if before != after:
                        if before is not MISSING:
                            index.remove(before, row_id)
                        if after is not MISSING:
                            index.insert(after, row_id)
                self._rows[row_id] = new
                self.version = next(_STAMPS)  # per row: a later row may raise
            return len(matched)

    def remove(self, conjuncts: Sequence[Conjunct], residual: Residual) -> int:
        """Delete every matching row; returns how many."""
        with self._lock:
            doomed = self._matching(conjuncts, residual)
            if doomed:
                self.version = next(_STAMPS)
            read = self._read
            for row_id in doomed:
                row = self._rows.pop(row_id)
                for field, index in self._indexes.items():
                    value = read(row, field)
                    if value is not MISSING:
                        index.remove(value, row_id)
            return len(doomed)

    def select(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None = None,
        at_most: int | None = None,
    ) -> Selection:
        """The stored rows (read-only) matching — every candidate when
        *residual* is None — in insertion order, the first *at_most* of them,
        reading no further."""
        with self._lock:
            fields, row_ids, test = self._candidates(conjuncts, residual)
            pending = iter(row_ids)
            rows = map(self._rows.__getitem__, pending)
            matched = list(islice(rows if test is None else filter(test, rows), at_most))
            # a list iterator's hint is exact: what early exit left unread
            examined = len(row_ids) - length_hint(pending)
            return Selection(matched, examined, 0 if test is None else examined, fields)

    def get(self, key: Any) -> Row | None:
        """The stored row (read-only) holding *key*, or None: a point read."""
        with self._lock:
            return self._rows.get(self._indexes[self.key].get(key))

    def _candidates(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None
    ) -> tuple[list[str], list[int], Callable | None]:
        """The indexed fields, the candidate ids in scan order, the test left."""
        chosen = choose_index(self._indexes.get, conjuncts)
        fields, row_ids, exact = chosen or ([], self._rows, set())
        return fields, sorted(row_ids), None if residual is None else residual(exact)

    def _matching(self, conjuncts: Sequence[Conjunct], residual: Residual) -> list[int]:
        _, row_ids, test = self._candidates(conjuncts, residual)
        return row_ids if test is None else [rid for rid in row_ids if test(self._rows[rid])]

    def create_index(self, field: str, kind: str = "hash") -> None:
        """Index *field* (kinds: ``hash`` answers ``=`` and ``in``, ``sorted``
        the ranges); a field already indexed keeps its index."""
        if kind not in _KINDS:
            raise StorageError(f"unknown index kind: {kind!r}")
        with self._lock:
            if field in self._indexes:
                return
            index = _KINDS[kind](field)
            index.extend(zip(map(self._read, self._rows.values(), repeat(field)), self._rows))
            self._indexes[field] = index

    def index_on(self, field: str) -> HashIndex | KeyIndex | SortedIndex | None:
        return self._indexes.get(field)

    def kinds(self) -> dict[str, str]:
        """Indexed field -> index kind, the key first."""
        with self._lock:
            return {field: index.kind for field, index in self._indexes.items()}


def select_in(
    slices: Iterable[Any], conjuncts: Sequence[Conjunct], residual: Residual | None = None,
    at_most: int | None = None,
) -> Selection:
    """``select`` over *slices* (heaps, or tables) read as one, in slice
    order: each slice picks its own access path and residual test, reading
    stops once *at_most* rows matched, and the fields are every one a slice's
    indexes answered."""
    rows: list[Row] = []
    examined, tested, used = 0, 0, {}
    for heap in slices:
        wanted = None if at_most is None else at_most - len(rows)
        if wanted == 0:
            break
        matched, seen, run, fields = heap.select(conjuncts, residual, wanted)
        rows += matched
        examined, tested = examined + seen, tested + run
        used.update(dict.fromkeys(fields))
    return Selection(rows, examined, tested, list(used))


def _where(predicate: Predicate) -> tuple[Sequence[Conjunct], Residual]:
    """A bare row test has no conjunct, so it is its own residual."""
    return predicate if isinstance(predicate, tuple) else ((), lambda exact: predicate)


class Table:
    """An in-memory relation: a :class:`RowHeap` of schema-validated rows,
    keyed by the primary key when the schema has one."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        primary = schema.primary_key()
        self._heap = RowHeap(
            None if primary is None else primary.name,
            lambda key: f"duplicate primary key {key!r} in table {self.name!r}",
        )

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def version(self) -> int:
        """The heap's write stamp: equal versions mean equal rows."""
        return self._heap.version

    def __len__(self) -> int:
        return len(self._heap)

    def insert(self, row: dict[str, Any]) -> int:
        """Validate and insert *row*; returns its row id."""
        return self._heap.insert(self.schema.validate_row(row))

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> list[int]:
        """Validate and insert *rows* as one batch (:meth:`RowHeap.insert_many`)."""
        return self._heap.insert_many(map(self.schema.validate_row, rows))

    def update(self, predicate: Predicate, changes: Mapping[str, Any] | Callable) -> int:
        """Apply *changes* — a mapping, or a function of the stored row returning
        one (``SET age = age + 5``) — to rows matching *predicate*, each read as
        it was before the call; returns count."""
        if not callable(changes):
            unknown = set(changes) - set(self.schema.column_names())
            if unknown:
                raise SchemaError(f"unknown columns in update: {sorted(unknown)}")
        revise = changes if callable(changes) else lambda row: changes
        validate = self.schema.validate_row
        return self._heap.replace(*_where(predicate), lambda row: validate({**row, **revise(row)}))

    def delete(self, predicate: Predicate) -> int:
        """Delete rows matching *predicate*; returns count."""
        return self._heap.remove(*_where(predicate))

    def select(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None = None,
        at_most: int | None = None,
    ) -> Selection:
        """:meth:`RowHeap.select`: the stored rows, for read-only callers."""
        return self._heap.select(conjuncts, residual, at_most)

    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over copies of all rows in insertion order."""
        return map(dict, self.select(())[0])

    def rows(self) -> list[dict[str, Any]]:
        return list(self.scan())

    def create_index(self, column: str, kind: str = "hash") -> None:
        """Build a secondary index over *column* (kinds: hash, sorted)."""
        if not self.schema.has_column(column):
            raise SchemaError(f"no column {column!r} in table {self.name!r}")
        self._heap.create_index(column, kind)

    def index_on(self, column: str) -> HashIndex | KeyIndex | SortedIndex | None:
        return self._heap.index_on(column)

    def indexed_columns(self) -> dict[str, str]:
        """Mapping of indexed column -> index kind (registry metadata)."""
        return self._heap.kinds()

    def lookup(self, column: str, value: Any) -> list[dict[str, Any]]:
        """Copies of the rows whose *column* equals *value*: indexed where an
        index answers ``=``, else a scan."""
        rows = self.select(
            [(column, "=", value)], lambda exact: None if exact else lambda row: row[column] == value
        ).rows
        return [dict(row) for row in rows]
