"""Tables: schema-validated row storage with secondary indices, over the
row heap both query stores keep their rows in."""

from __future__ import annotations

import itertools
import threading
from itertools import compress, islice, repeat
from operator import getitem, length_hint
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ...errors import SchemaError, StorageError
from ..schema import TableSchema
from .index import MISSING, Conjunct, HashIndex, KeyIndex, SortedIndex, choose_index

#: Process-wide write stamps, so no two heap states ever share a version.
_STAMPS = itertools.count(1)

#: A stored row: a table's tuple in column order, a collection's document.
Row = Any
#: A decided change of one row: its row id and the row that replaces it.
Image = tuple[int, Row]
#: A predicate's test left once an index answered the conjuncts at the given
#: positions exactly: a test of a stored row, or None when nothing is left.
Residual = Callable[[set[int]], Callable[[Row], Any] | None]
#: What ``Table.update`` / ``delete`` match: a test of a row dict, or ``(conjuncts, residual)``.
Predicate = Callable[[dict[str, Any]], Any] | tuple[Sequence[Conjunct], Residual]


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

#: Row ids as one shared int object each: every heap hands them out from 0.
_ROW_IDS: list[int] = []
_GROWING = threading.Lock()


def _row_ids(start: int, stop: int) -> list[int]:
    if stop > len(_ROW_IDS):
        with _GROWING:
            _ROW_IDS.extend(range(len(_ROW_IDS), stop))
    return _ROW_IDS[start:stop]


class RowHeap:
    """The row layout under a ``Table`` and a ``Collection``.

    Rows live in a list at int row ids handed out in insertion order (a
    removed row leaves None), so sorting row ids *is* scan order, and every
    index maps values to row ids: the one optional unique *key* (a table's
    primary key, a collection's ``_id``) and the secondary ones.  A stored
    row is never mutated — ``replace`` swaps in a new one — so ``select``
    hands its read-only callers the stored rows themselves.  Reads and
    writes take a predicate as sargable *conjuncts* and a :data:`Residual`,
    so a candidate is tested only on what the indexes that chose it did not
    answer exactly.  A write is decided on the rows as they were before it
    (:meth:`images`, :meth:`matching`), then applied by (deterministic) row
    id (:meth:`put`, :meth:`drop`).  ``version`` is re-stamped by every write
    that changes a row: equal versions mean equal rows (what a memo keys on).

    *read* ``(row, at)`` is the value an index on a field keys a row under,
    or ``MISSING`` for a row it leaves out, *at* being the field's entry in
    *positions* (a table's: its column's) or else the field; the key is
    ``row[at]``.  *duplicate* ``(key)`` is the message refusing a key
    another row holds.
    """

    def __init__(
        self, key: str | None, duplicate: Callable[[Any], str], read: Callable = getitem,
        positions: Mapping[str, int] | None = None,
    ) -> None:
        self.key = key
        self._duplicate = duplicate
        self._read = read
        self._at = positions or {}
        self._rows: list[Row | None] = []
        self._size = 0
        self._indexes: dict[str, HashIndex | KeyIndex | SortedIndex] = {}
        if key is not None:
            self._key_index = self._indexes[key] = KeyIndex(key)
            self._key_at = self._at.get(key, key)
        self._lock = threading.RLock()
        self.version = next(_STAMPS)

    def __len__(self) -> int:
        return self._size

    def insert(self, row: Row) -> int:
        """Store *row*: :meth:`insert_many`'s one-row case; returns its row id."""
        return self.insert_many((row,))[0]

    def insert_many(self, rows: Iterable[Row]) -> list[int]:
        """Store *rows* (kept: pass rows no one changes) under one lock, key
        check and version stamp; their row ids.  A row is refused where a loop
        would refuse it — a key held, or *rows* raising — and those before it stay."""
        with self._lock:
            batch: list[Row] = []
            refused: Exception | None = None  # raised once the rows before it are stored
            try:
                batch.extend(rows)
            except Exception as error:
                refused = error
            start = len(self._rows)
            row_ids = _row_ids(start, start + len(batch))
            if self.key is not None:
                keys = [row[self._key_at] for row in batch]
                claimed = self._key_index.claim(keys, row_ids)
                if claimed < len(batch):
                    refused = StorageError(self._duplicate(keys[claimed]))
                    del batch[claimed:], row_ids[claimed:]
            if batch:
                self._rows += batch
                self._size += len(batch)
                self.version = next(_STAMPS)
                read, at = self._read, self._at
                for field, index in self._indexes.items():
                    if field == self.key:
                        continue
                    if len(batch) == 1:  # no (value, row_id) pairs to build for one row
                        value = read(batch[0], at.get(field, field))
                        if value is not MISSING:
                            index.insert(value, row_ids[0])
                    else:  # an index skips MISSING
                        index.extend(zip(map(read, batch, repeat(at.get(field, field))), row_ids))
            if refused is not None:
                raise refused
            return row_ids

    def replace(self, conjuncts: Sequence[Conjunct], residual: Residual, change: Callable) -> int:
        """Swap every matching row for ``change(row)`` — :meth:`images`, then
        :meth:`put` — returns how many.  A refused row raises once the rows
        before it are replaced, as an INSERT's are stored."""
        images: list[Image] = []
        with self._lock:
            try:
                self.images(conjuncts, residual, change, images)
            finally:
                self.put(images)
            return len(images)

    def images(
        self, conjuncts: Sequence[Conjunct], residual: Residual, change: Callable,
        images: list[Image] | None = None,
    ) -> list[Image]:
        """Decide a replace, changing nothing: each matching row's id and
        ``change(row)``, every row read as it was before the call, appended
        to *images* (a new list when None) until a row is refused — *change*
        raises, or its key is another row's once the images before it are in
        — which raises with the images before it left in *images*."""
        images = [] if images is None else images
        with self._lock:
            rows, moved = self._rows, {}  # key -> its holder once the images so far are in
            for row_id in self.matching(conjuncts, residual):
                new = change(rows[row_id])
                if self.key is not None:
                    old, key = rows[row_id][self._key_at], new[self._key_at]
                    if moved.get(key, self._key_index.get(key)) not in (None, row_id):
                        raise StorageError(self._duplicate(key))
                    if old != key:
                        moved[old], moved[key] = None, row_id
                images.append((row_id, new))
            return images

    def put(self, images: Sequence[Image]) -> int:
        """Apply decided images (kept: pass rows no one changes), moving only
        the index entries whose value changed."""
        with self._lock:
            rows, read, at = self._rows, self._read, self._at
            for row_id, new in images:
                old = rows[row_id]
                for field, index in self._indexes.items():
                    before = read(old, at.get(field, field))
                    after = read(new, at.get(field, field))
                    if before != after:
                        if before is not MISSING:
                            index.remove(before, row_id)
                        if after is not MISSING:
                            index.insert(after, row_id)
                rows[row_id] = new
            if images:
                self.version = next(_STAMPS)
            return len(images)

    def remove(self, conjuncts: Sequence[Conjunct], residual: Residual) -> int:
        """Delete every matching row: :meth:`matching`, then :meth:`drop`."""
        with self._lock:
            return self.drop(self.matching(conjuncts, residual))

    def drop(self, row_ids: Sequence[int]) -> int:
        """Apply a decided remove: delete the rows at *row_ids*."""
        with self._lock:
            if row_ids:
                self.version = next(_STAMPS)
            rows, read, at = self._rows, self._read, self._at
            for row_id in row_ids:
                row, rows[row_id] = rows[row_id], None
                for field, index in self._indexes.items():
                    value = read(row, at.get(field, field))
                    if value is not MISSING:
                        index.remove(value, row_id)
            self._size -= len(row_ids)
            return len(row_ids)

    def select(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None = None,
        at_most: int | None = None,
    ) -> Selection:
        """The stored rows (read-only) matching — every candidate when
        *residual* is None — in insertion order, the first *at_most* of them,
        reading no further."""
        with self._lock:
            fields, row_ids, test = self._candidates(conjuncts, residual)
            if row_ids is None:  # a scan reads the rows themselves, less the removed
                rows = self._rows
                candidates = rows if self._size == len(rows) else [*filter(None, rows)]
                rows = pending = iter(candidates)
            else:
                candidates, pending = row_ids, iter(row_ids)
                rows = map(self._rows.__getitem__, pending)
            matched = list(islice(rows if test is None else filter(test, rows), at_most))
            # a list iterator's hint is exact: what early exit left unread
            examined = len(candidates) - length_hint(pending)
            return Selection(matched, examined, 0 if test is None else examined, fields)

    def get(self, key: Any) -> Row | None:
        """The stored row (read-only) holding *key*, or None: a point read."""
        with self._lock:
            row_id = self._key_index.get(key)
            return None if row_id is None else self._rows[row_id]

    def _candidates(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None
    ) -> tuple[list[str], list[int] | None, Callable | None]:
        """The indexed fields, the candidate ids in scan order (None: all), the test left."""
        fields, row_ids, exact = choose_index(self._indexes.get, conjuncts) or ([], None, set())
        test = None if residual is None else residual(exact)
        return fields, None if row_ids is None else sorted(row_ids), test

    def matching(self, conjuncts: Sequence[Conjunct], residual: Residual) -> list[int]:
        """The ids of the matching rows, in scan order: a decided remove."""
        with self._lock:
            _, row_ids, test = self._candidates(conjuncts, residual)
            row_ids = self._stored_ids() if row_ids is None else row_ids
            return row_ids if test is None else [rid for rid in row_ids if test(self._rows[rid])]

    def _stored_ids(self) -> list[int]:
        return list(compress(_row_ids(0, len(self._rows)), self._rows))  # None: removed

    def create_index(self, field: str, kind: str = "hash") -> None:
        """Index *field* (kinds: ``hash`` answers ``=`` and ``in``, ``sorted``
        the ranges); a field already indexed keeps its index."""
        if kind not in _KINDS:
            raise StorageError(f"unknown index kind: {kind!r}")
        with self._lock:
            if field in self._indexes:
                return
            index, row_ids = _KINDS[kind](field), self._stored_ids()
            rows = map(self._rows.__getitem__, row_ids)
            index.extend(zip(map(self._read, rows, repeat(self._at.get(field, field))), row_ids))
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


class Table:
    """An in-memory relation: a :class:`RowHeap` of schema-validated rows —
    tuples in column order — keyed by the primary key when the schema has
    one.  A row is a dict only on its way out (``scan`` / ``rows`` /
    ``lookup``) and where a caller's function reads it (``update`` / ``delete``)."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._names = tuple(schema.column_names())
        primary = schema.primary_key()
        self._heap = RowHeap(
            None if primary is None else primary.name,
            lambda key: f"duplicate primary key {key!r} in table {self.name!r}",
            positions={name: at for at, name in enumerate(self._names)},
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
        """Apply *changes* — a mapping, or a function of the row (a dict)
        returning one — to rows matching *predicate*, each read as it was
        before the call; returns count."""
        if not callable(changes):
            unknown = set(changes) - set(self._names)
            if unknown:
                raise SchemaError(f"unknown columns in update: {sorted(unknown)}")
        revise = changes if callable(changes) else lambda row: changes
        as_dict, validate = self._as_dict, self.schema.validate_row
        return self._heap.replace(
            *self._where(predicate), lambda row: validate({**(old := as_dict(row)), **revise(old)})
        )

    def replace(
        self, conjuncts: Sequence[Conjunct], residual: Residual, change: Callable
    ) -> int:
        """:meth:`RowHeap.replace` over the stored tuples: *change* maps a
        matching one to its new values in column order, validated here."""
        validate = self.schema.validate_values
        return self._heap.replace(conjuncts, residual, lambda row: validate(change(row)))

    def delete(self, predicate: Predicate) -> int:
        """Delete rows matching *predicate*; returns count."""
        return self._heap.remove(*self._where(predicate))

    def _where(self, predicate: Predicate) -> tuple[Sequence[Conjunct], Residual]:
        """A test of a row dict has no conjunct: it is the residual, each row its own dict."""
        if isinstance(predicate, tuple):
            return predicate
        return (), lambda exact: lambda row: predicate(self._as_dict(row))

    def _as_dict(self, row: tuple[Any, ...]) -> dict[str, Any]:
        return dict(zip(self._names, row))

    def select(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None = None,
        at_most: int | None = None,
    ) -> Selection:
        """:meth:`RowHeap.select`: the stored tuples, for read-only callers."""
        return self._heap.select(conjuncts, residual, at_most)

    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over all rows, as dicts, in insertion order."""
        return map(dict, map(zip, repeat(self._names), self.select(())[0]))

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
        """The rows, as dicts, whose *column* equals *value*: indexed where
        an index answers ``=``, else a scan."""
        if column not in self._names:
            raise SchemaError(f"no column {column!r} in table {self.name!r}")
        at = self._names.index(column)
        rows = self.select(
            [(column, "=", value)], lambda exact: None if exact else lambda row: row[at] == value
        ).rows
        return list(map(self._as_dict, rows))
