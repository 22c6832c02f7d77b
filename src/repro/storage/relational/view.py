"""Read-only concatenation of tables that share one schema.

A sharded database answers joins and aggregates by handing the SQL
executor a :class:`ConcatTable` per referenced table: the shard slices
read in place, in shard order, as if they had been inserted one after
another into a single table.  Nothing is copied up front, validated, or
re-indexed; the slices' own indexes answer lookups.

Row ids are ``(slice position, row id)`` pairs, so sorting them gives
slice order first and each slice's insertion order within it — the order
a scan returns.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Iterable, Sequence

from ...errors import StorageError
from ..schema import TableSchema
from .index import HashIndex, KeyIndex, SortedIndex
from .table import Table

RowId = tuple[int, int]


class ConcatIndex:
    """The slices' indexes on one column, read as one."""

    def __init__(self, indexes: Sequence[HashIndex | KeyIndex | SortedIndex]) -> None:
        self._indexes = indexes

    def estimate(self, op: str, value: Any) -> int | None:
        sizes = [index.estimate(op, value) for index in self._indexes]
        return None if None in sizes else sum(sizes)

    def ids(self, op: str, value: Any) -> Iterable[RowId]:
        return chain.from_iterable(
            zip(repeat(position), index.ids(op, value))
            for position, index in enumerate(self._indexes)
        )


class ConcatTable:
    """What the SQL executor reads of a :class:`Table`, over *slices*.

    Raises:
        StorageError: when two slices hold the same primary key — the
            concatenation would not be a table.
    """

    def __init__(self, schema: TableSchema, slices: Sequence[Table]) -> None:
        self.schema = schema
        self._slices = slices
        primary = schema.primary_key()
        if primary is not None and len(slices) > 1:
            seen: set[Any] = set()
            for table in slices:
                keys = table.index_on(primary.name).keys()
                if not seen.isdisjoint(keys):
                    shared = next(key for key in keys if key in seen)
                    raise StorageError(
                        f"duplicate primary key {shared!r} in table {self.name!r}"
                    )
                seen.update(keys)

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return sum(len(table) for table in self._slices)

    def rows(self) -> list[dict[str, Any]]:
        return [row for table in self._slices for row in table.rows()]

    def get_by_row_ids(self, row_ids: Iterable[RowId]) -> list[dict[str, Any]]:
        by_slice: dict[int, list[int]] = {}
        for position, row_id in row_ids:
            by_slice.setdefault(position, []).append(row_id)
        return [
            row
            for position in sorted(by_slice)
            for row in self._slices[position].get_by_row_ids(by_slice[position])
        ]

    def index_on(self, column: str) -> ConcatIndex | None:
        indexes = [table.index_on(column) for table in self._slices]
        if not indexes or any(index is None for index in indexes):
            return None
        return ConcatIndex(indexes)
