"""Read-only concatenation of tables that share one schema.

A sharded database runs every SELECT, UPDATE and DELETE over a
:class:`ConcatTable` per referenced table: the shard slices read in
place, in shard order, as if they had been inserted one after another
into a single table.  Nothing is copied, validated, or re-indexed, each
slice's own indexes pick its candidates, and a write is only decided:
its effect on each slice is left in ``effects`` for the router to log.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ...errors import StorageError
from ..schema import TableSchema
from .index import Conjunct
from .table import Image, Residual, Selection, Table, select_in


class ConcatTable:
    """What the SQL executor reads of a :class:`Table`, over *slices*.

    Raises:
        StorageError: when two slices hold the same primary key — the
            concatenation would not be a table.
    """

    def __init__(self, schema: TableSchema, slices: Sequence[Table]) -> None:
        self.schema = schema
        self._slices = slices
        #: The last write's images (UPDATE) or removed row ids (DELETE), by slice.
        self.effects: list[list[Image]] | list[list[int]] = []
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

    def replace(self, conjuncts: Sequence[Conjunct], residual: Residual, change: Callable) -> int:
        """Decide ``Table.replace`` on every slice, changing none; a refusal
        on any slice raises before the router logs anything."""
        validate = self.schema.validate_values
        self.effects = [
            table._heap.images(conjuncts, residual, lambda row: validate(change(row)))
            for table in self._slices
        ]
        return sum(map(len, self.effects))

    def delete(self, predicate: tuple[Sequence[Conjunct], Residual]) -> int:
        """Decide ``Table.delete`` on every slice, removing nothing."""
        self.effects = [table._heap.matching(*predicate) for table in self._slices]
        return sum(map(len, self.effects))
