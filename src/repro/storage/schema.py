"""Typed schemas shared by the storage substrates.

The relational engine, the data registry, and the data planner all reason
about schemas: column names, types, and keys.  Keeping one schema model here
lets registry metadata describe any source uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Column types supported by the relational engine."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"

    def validate(self, value: Any) -> Any:
        """Coerce/check *value* against this type; None is always allowed
        at this level (nullability is checked by the column)."""
        if value is None:
            return None
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected float, got {value!r}")
            return float(value)
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise SchemaError(f"expected text, got {value!r}")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(f"expected bool, got {value!r}")
            return value
        raise SchemaError(f"unknown column type: {self}")

    @classmethod
    def parse(cls, name: str) -> "ColumnType":
        """Parse a SQL type name (INT/INTEGER, FLOAT/REAL/DOUBLE, TEXT/VARCHAR, BOOL)."""
        normalized = name.strip().upper()
        aliases = {
            "INT": cls.INT,
            "INTEGER": cls.INT,
            "BIGINT": cls.INT,
            "FLOAT": cls.FLOAT,
            "REAL": cls.FLOAT,
            "DOUBLE": cls.FLOAT,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "BOOL": cls.BOOL,
            "BOOLEAN": cls.BOOL,
        }
        if normalized not in aliases:
            raise SchemaError(f"unknown SQL type: {name!r}")
        return aliases[normalized]


#: The one value type each column type passes as it is (Column.validate checks the rest).
_EXACT = {ColumnType.INT: int, ColumnType.FLOAT: float, ColumnType.TEXT: str, ColumnType.BOOL: bool}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType
    nullable: bool = True
    primary_key: bool = False
    description: str = ""

    def validate(self, value: Any) -> Any:
        if value is None:
            if not self.nullable or self.primary_key:
                raise SchemaError(f"column {self.name!r} may not be NULL")
            return None
        return self.type.validate(value)


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of columns describing a relation."""

    name: str
    columns: tuple[Column, ...]
    description: str = ""

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema {self.name!r}")
        if not self.columns:
            raise SchemaError(f"schema {self.name!r} has no columns")
        # validate_row's per-row reads, computed once (not dataclass fields)
        exact = tuple(_EXACT[c.type] for c in self.columns)
        object.__setattr__(self, "_checks", (tuple(names), frozenset(names), exact))

    @classmethod
    def build(
        cls, name: str, columns: Iterable[tuple[str, ColumnType] | Column], description: str = ""
    ) -> "TableSchema":
        """Build from ``Column`` objects or ``(name, type)`` pairs."""
        built: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                built.append(spec)
            else:
                col_name, col_type = spec
                built.append(Column(col_name, col_type))
        return cls(name=name, columns=tuple(built), description=description)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def primary_key(self) -> Column | None:
        for col in self.columns:
            if col.primary_key:
                return col
        return None

    def validate_row(self, row: dict[str, Any]) -> tuple[Any, ...]:
        """Validate and normalize a row dict against the schema: the stored
        row, a tuple in column order.

        Unknown keys are rejected; missing nullable columns become None.
        """
        names, known, _ = self._checks
        if not known.issuperset(row):
            unknown = sorted(set(row) - known)
            raise SchemaError(f"unknown columns for table {self.name!r}: {unknown}")
        return self.validate_values(tuple(map(row.get, names)))

    def validate_values(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate and normalize *values*, one per column in column order."""
        exact = self._checks[2]
        if tuple(map(type, values)) != exact:  # not every value passes as it is
            return tuple(
                value if type(value) is kept else column.validate(value)
                for value, kept, column in zip(values, exact, self.columns)
            )
        return tuple(values)

    def describe(self) -> dict[str, Any]:
        """A metadata mapping used by the data registry."""
        return {
            "table": self.name,
            "description": self.description,
            "columns": [
                {
                    "name": c.name,
                    "type": c.type.value,
                    "nullable": c.nullable,
                    "primary_key": c.primary_key,
                    "description": c.description,
                }
                for c in self.columns
            ],
        }
