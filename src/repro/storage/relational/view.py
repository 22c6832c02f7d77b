"""Read-only concatenation of tables that share one schema.

A sharded database answers joins and aggregates by handing the SQL
executor a :class:`ConcatTable` per referenced table: the shard slices
read in place, in shard order, as if they had been inserted one after
another into a single table.  Nothing is copied up front, validated, or
re-indexed: ``select`` reads the slices through ``select_in``, and each
slice's own indexes pick its candidates.
"""

from __future__ import annotations

from typing import Any, Sequence

from ...errors import StorageError
from ..schema import TableSchema
from .index import Conjunct
from .table import Residual, Selection, Table, select_in


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

    def select(
        self, conjuncts: Sequence[Conjunct], residual: Residual | None = None,
        at_most: int | None = None,
    ) -> Selection:
        """``Table.select`` over the slices read as one, in slice order."""
        return select_in(self._slices, conjuncts, residual, at_most)
