"""A relational database: a named catalog of tables plus a SQL front door."""

from __future__ import annotations

import threading
from typing import Any, Hashable, Iterable, TYPE_CHECKING

from ...errors import StorageError
from ...observability.span import NOOP_SPAN
from ..schema import Column, ColumnType, TableSchema
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability import Observability
    from ...observability.span import Span
    from .view import ConcatTable


class Database:
    """Holds tables and executes SQL against them.

    The SQL entry point lives here (rather than on tables) because queries
    may join multiple tables.  Execution is delegated to
    :mod:`repro.storage.relational.sql`.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        #: Optional tracing/metrics sink: every :meth:`execute` then opens
        #: a ``storage`` span and counts queries/rows (settable after
        #: construction — applications wire their runtime's handle in).
        self.observability: "Observability | None" = None
        self._tables: dict[str, Table] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        table = Table(schema)
        self.attach(table)
        return table

    def attach(self, table: "Table | ConcatTable") -> None:
        """Register a table — or a view or router front standing for one — by its name."""
        with self._lock:
            key = table.name.lower()
            if key in self._tables:
                raise StorageError(f"table already exists: {table.name!r}")
            self._tables[key] = table

    def table(self, name: str) -> Table:
        with self._lock:
            table = self._tables.get(name.lower())
        if table is None:
            raise StorageError(f"unknown table: {name!r} in database {self.name!r}")
        return table

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def tables(self) -> list[Table]:
        with self._lock:
            return list(self._tables.values())

    def data_version(self, table_name: str) -> Hashable:
        """Equal values mean *table_name* holds the same rows: what a memo
        over a statement on that table is keyed on (here, its write stamp)."""
        return self.table(table_name).version

    def describe(self) -> dict[str, Any]:
        """Catalog metadata (used by the data registry)."""
        return {
            "database": self.name,
            "description": self.description,
            "tables": [table.schema.describe() for table in self.tables()],
        }

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(self, sql: str, parameters: dict[str, Any] | None = None) -> "SQLResult":
        """Parse and execute a SQL statement against this database."""
        parameters = parameters or {}
        obs = self.observability
        if obs is None:
            return self._run(sql, parameters, NOOP_SPAN)
        with obs.span(f"sql:{self.name}", kind="storage", database=self.name) as span:
            result = self._run(sql, parameters, span)
            span.set_attribute("statement_kind", result.statement_kind)
            span.set_attribute("rows", len(result.rows))
            obs.metrics.inc("storage.queries", database=self.name)
            obs.metrics.inc("storage.rows", len(result.rows), database=self.name)
            return result

    def _run(self, sql: str, parameters: dict[str, Any], span: "Span") -> "SQLResult":
        """How one statement is answered, inside :meth:`execute`'s span.

        A database that is not one catalog of local tables overrides this
        and may put what it knows about the statement on *span*.
        """
        from .sql import execute_sql

        return execute_sql(self, sql, parameters)

    def query(self, sql: str, parameters: dict[str, Any] | None = None) -> list[dict[str, Any]]:
        """Execute a SELECT and return its rows."""
        return self.execute(sql, parameters).rows


class SQLResult:
    """The outcome of executing one SQL statement."""

    def __init__(
        self,
        rows: list[dict[str, Any]] | None = None,
        columns: list[str] | None = None,
        rowcount: int = 0,
        statement_kind: str = "select",
    ) -> None:
        self.rows = rows if rows is not None else []
        self.columns = columns if columns is not None else []
        self.rowcount = rowcount if rowcount else len(self.rows)
        self.statement_kind = statement_kind

    def scalar(self) -> Any:
        """First column of the first row (for COUNT(*)-style queries)."""
        if not self.rows or not self.columns:
            return None
        return self.rows[0][self.columns[0]]

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def quick_table(
    database: Database,
    name: str,
    columns: Iterable[tuple[str, ColumnType] | Column],
    rows: Iterable[dict[str, Any]] = (),
    description: str = "",
) -> Table:
    """Create a table from (name, type) pairs and bulk-insert *rows*."""
    schema = TableSchema.build(name, columns, description=description)
    table = database.create_table(schema)
    table.insert_many(rows)
    return table
