"""Tables: schema-validated row storage with secondary indices."""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Iterator

from ...errors import SchemaError, StorageError
from ..schema import TableSchema
from .index import HashIndex, KeyIndex, SortedIndex

#: Process-wide write stamps, so no two table states ever share a version.
_STAMPS = itertools.count(1)


class Table:
    """An in-memory relation.

    Rows are dicts keyed by column name, stored under stable integer row
    ids; deletions leave holes so indices stay valid without renumbering.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_row_id = 0
        self._indices: dict[str, HashIndex | KeyIndex | SortedIndex] = {}
        self._lock = threading.RLock()
        #: Re-stamped by every insert / update / delete that changes a row:
        #: equal versions mean equal rows (what a memo over them keys on).
        self.version = next(_STAMPS)
        primary = schema.primary_key()
        if primary is not None:
            self._indices[primary.name] = KeyIndex(primary.name)

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: dict[str, Any]) -> int:
        """Validate and insert *row*; returns its row id."""
        validated = self.schema.validate_row(row)
        with self._lock:
            primary = self.schema.primary_key()
            if primary is not None:
                if self._indices[primary.name].get(validated[primary.name]) is not None:
                    raise StorageError(
                        f"duplicate primary key {validated[primary.name]!r} "
                        f"in table {self.name!r}"
                    )
            row_id = self._next_row_id
            self._next_row_id += 1
            self._rows[row_id] = validated
            self.version = next(_STAMPS)
            for column, index in self._indices.items():
                index.insert(validated[column], row_id)
            return row_id

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> list[int]:
        return [self.insert(row) for row in rows]

    def update(
        self, predicate: Callable[[dict[str, Any]], bool], changes: dict[str, Any]
    ) -> int:
        """Apply *changes* to rows matching *predicate*; returns count."""
        unknown = set(changes) - set(self.schema.column_names())
        if unknown:
            raise SchemaError(f"unknown columns in update: {sorted(unknown)}")
        updated = 0
        with self._lock:
            for row_id, row in self._rows.items():
                if not predicate(row):
                    continue
                new_row = self.schema.validate_row({**row, **changes})
                for column, index in self._indices.items():
                    if row[column] != new_row[column]:
                        index.remove(row[column], row_id)
                        index.insert(new_row[column], row_id)
                self._rows[row_id] = new_row
                self.version = next(_STAMPS)  # per row: a later row may raise
                updated += 1
        return updated

    def delete(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete rows matching *predicate*; returns count."""
        with self._lock:
            doomed = [rid for rid, row in self._rows.items() if predicate(row)]
            if doomed:
                self.version = next(_STAMPS)
            for row_id in doomed:
                row = self._rows.pop(row_id)
                for column, index in self._indices.items():
                    index.remove(row[column], row_id)
        return len(doomed)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over copies of all rows in insertion order."""
        with self._lock:
            snapshot = [self._rows[rid] for rid in sorted(self._rows)]
        for row in snapshot:
            yield dict(row)

    def rows(self) -> list[dict[str, Any]]:
        return list(self.scan())

    def get_by_row_ids(self, row_ids: Iterable[int]) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(self._rows[rid]) for rid in sorted(row_ids) if rid in self._rows]

    # ------------------------------------------------------------------
    # Indices
    # ------------------------------------------------------------------
    def create_index(self, column: str, kind: str = "hash") -> None:
        """Build a secondary index over *column* (kinds: hash, sorted)."""
        if not self.schema.has_column(column):
            raise SchemaError(f"no column {column!r} in table {self.name!r}")
        with self._lock:
            if column in self._indices:
                return
            if kind == "hash":
                index: HashIndex | SortedIndex = HashIndex(column)
            elif kind == "sorted":
                index = SortedIndex(column)
            else:
                raise StorageError(f"unknown index kind: {kind!r}")
            index.extend((row[column], row_id) for row_id, row in self._rows.items())
            self._indices[column] = index

    def index_on(self, column: str) -> HashIndex | KeyIndex | SortedIndex | None:
        with self._lock:
            return self._indices.get(column)

    def indexed_columns(self) -> dict[str, str]:
        """Mapping of indexed column -> index kind (registry metadata)."""
        with self._lock:
            return {column: index.kind for column, index in self._indices.items()}

    def lookup(self, column: str, value: Any) -> list[dict[str, Any]]:
        """Indexed equality lookup; a scan where no index answers ``=``."""
        index = self.index_on(column)
        if index is not None and index.estimate("=", value) is not None:
            return self.get_by_row_ids(index.ids("=", value))
        return [row for row in self.scan() if row[column] == value]
