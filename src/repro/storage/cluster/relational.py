"""Sharded, replicated relational database with SQL fan-out and merge.

Each replica's state is a full single-node :class:`Database` holding the
shard's horizontal slice of every table.  A table routes rows by its
``partition_column`` (defaulting to the primary key), so WHERE clauses
with an equality or ``IN`` conjunct on that column prune the SELECT
fan-out to the owning shards.

SQL execution at the router takes one of two paths:

* **Pushdown** — single-table SELECTs without aggregates, grouping,
  DISTINCT, or OFFSET execute on each pruned shard's primary (ORDER BY
  and LIMIT pushed down: per-shard top-k is a superset of the global
  top-k), then the router merges, re-sorts, and re-limits.
* **Gather** — anything else (joins, aggregates, GROUP BY, subqueries)
  runs the original statement once on an ephemeral single-node scratch
  database whose tables are read-only views: each is the concatenation,
  in shard order, of the pruned shard primaries' own tables and indexes
  (:class:`~repro.storage.relational.view.ConcatTable`).  No row is
  copied, re-validated, or re-indexed, and the one ``Executor`` gives
  full SQL semantics.  A primary key present on two gathered slices
  (possible when the partition column is not the primary key) is a
  ``StorageError``.

Writes never take a shortcut: INSERT rows are evaluated at the router,
routed by partition value, and quorum-appended; UPDATE/DELETE replay the
statement itself on each pruned shard (all replicas execute the same SQL
in the same order, so their tables stay identical).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ...clock import SimClock
from ...errors import StorageError
from ..document.store import _sortable
from ..relational.database import Database, SQLResult
from ..relational.sql import ast
from ..relational.sql.executor import Executor, _column_literal, _conjuncts
from ..relational.sql.parser import parse
from ..relational.view import ConcatTable
from ..schema import Column, ColumnType, TableSchema
from .cluster import StoreCluster

_NOT_CONSTANT = object()


# ----------------------------------------------------------------------
# Op serialization helpers (ops must be JSON-able for log digests)
# ----------------------------------------------------------------------
def _schema_to_json(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "description": schema.description,
        "columns": [
            {
                "name": c.name,
                "type": c.type.name,
                "nullable": c.nullable,
                "primary_key": c.primary_key,
                "description": c.description,
            }
            for c in schema.columns
        ],
    }


def _schema_from_json(data: Mapping[str, Any]) -> TableSchema:
    return TableSchema(
        name=data["name"],
        columns=tuple(
            Column(
                name=c["name"],
                type=ColumnType[c["type"]],
                nullable=c["nullable"],
                primary_key=c["primary_key"],
                description=c["description"],
            )
            for c in data["columns"]
        ),
        description=data["description"],
    )


def _make_database() -> Database:
    return Database("shard")


def _apply_relational(state: Database, op: dict[str, Any]) -> Any:
    kind = op["op"]
    if kind == "create_table":
        if not state.has_table(op["schema"]["name"]):
            state.create_table(_schema_from_json(op["schema"]))
        return None
    if kind == "insert":
        state.table(op["table"]).insert(op["row"])
        return 1
    if kind == "insert_many":
        state.table(op["table"]).insert_many(op["rows"])
        return len(op["rows"])
    if kind == "create_index":
        table = state.table(op["table"])
        if op["column"] not in table.indexed_columns():
            table.create_index(op["column"], kind=op["kind"])
        return None
    if kind == "sql":
        return state.execute(op["sql"], op.get("parameters") or {}).rowcount
    raise StorageError(f"unknown relational op: {kind}")


class ShardedTable:
    """Router facade over one table's slices (registry-compatible)."""

    def __init__(
        self,
        database: "ShardedDatabase",
        schema: TableSchema,
        partition_column: str,
    ) -> None:
        self._database = database
        self._cluster = database.cluster
        self.schema = schema
        self.partition_column = partition_column

    @property
    def name(self) -> str:
        return self.schema.name

    def _route(self, value: Any) -> str:
        return f"{self.schema.name.lower()}|{value}"

    def shard_for_value(self, value: Any) -> int:
        return self._cluster.shard_for(self._route(value))

    def shards_for_values(self, values: Iterable[Any]) -> list[int]:
        return self._cluster.ring.shards_for(self._route(v) for v in values)

    # -- mutation ------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> None:
        validated = self.schema.validate_row(dict(row))
        shard = self.shard_for_value(validated.get(self.partition_column))
        self._cluster.append_to(
            shard, {"op": "insert", "table": self.schema.name, "row": validated}
        )

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk insert, batched into one quorum append per touched shard."""
        batches: dict[int, list[dict[str, Any]]] = {}
        for row in rows:
            validated = self.schema.validate_row(dict(row))
            shard = self.shard_for_value(validated.get(self.partition_column))
            batches.setdefault(shard, []).append(validated)
        total = 0
        for shard in sorted(batches):
            total += self._cluster.append_to(
                shard,
                {
                    "op": "insert_many",
                    "table": self.schema.name,
                    "rows": batches[shard],
                },
            )
        return total

    def create_index(self, column: str, kind: str = "hash") -> None:
        self._cluster.broadcast(
            {
                "op": "create_index",
                "table": self.schema.name,
                "column": column,
                "kind": kind,
            }
        )

    # -- reads (registry/introspection) --------------------------------
    def _shard_tables(self, indices: list[int] | None = None):
        for state in self._cluster.primary_states(indices):
            if state.has_table(self.schema.name):
                yield state.table(self.schema.name)

    def rows(self) -> list[dict[str, Any]]:
        collected: list[dict[str, Any]] = []
        for table in self._shard_tables():
            collected.extend(table.rows())
        return collected

    def scan(self) -> Iterable[dict[str, Any]]:
        return iter(self.rows())

    def indexed_columns(self) -> dict[str, str]:
        for table in self._shard_tables([0]):
            return table.indexed_columns()
        return {}

    def __len__(self) -> int:
        return sum(len(table) for table in self._shard_tables())


class ShardedDatabase(Database):
    """Drop-in ``Database`` facade over a :class:`StoreCluster`."""

    def __init__(
        self,
        name: str,
        n_shards: int = 4,
        n_replicas: int = 3,
        clock: SimClock | None = None,
        seed: int = 0,
        description: str = "",
        **cluster_options: Any,
    ) -> None:
        super().__init__(name, description)
        self._clock = clock or SimClock()
        self.cluster = StoreCluster(
            f"sql:{name}",
            n_shards,
            n_replicas,
            _make_database,
            _apply_relational,
            clock=self._clock,
            seed=seed,
            **cluster_options,
        )
        self._fronts: dict[str, ShardedTable] = {}
        #: Stats of the most recent SELECT — span attributes + bench gate.
        self.last_execute_stats: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(
        self, schema: TableSchema, partition_column: str | None = None
    ) -> ShardedTable:
        with self._lock:
            key = schema.name.lower()
            if key in self._fronts:
                raise StorageError(f"table already exists: {schema.name!r}")
            if partition_column is None:
                pk = schema.primary_key()
                partition_column = pk.name if pk is not None else schema.columns[0].name
            if not schema.has_column(partition_column):
                raise StorageError(
                    f"partition column {partition_column!r} not in {schema.name!r}"
                )
            self.cluster.broadcast(
                {"op": "create_table", "schema": _schema_to_json(schema)}
            )
            front = ShardedTable(self, schema, partition_column)
            self._fronts[key] = front
            return front

    def drop_table(self, name: str) -> None:
        raise StorageError("sharded databases do not support DROP TABLE")

    def table(self, name: str) -> ShardedTable:
        with self._lock:
            front = self._fronts.get(name.lower())
        if front is None:
            raise StorageError(f"unknown table: {name!r} in database {self.name!r}")
        return front

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._fronts

    def tables(self) -> list[ShardedTable]:
        with self._lock:
            return [self._fronts[k] for k in sorted(self._fronts)]

    def table_names(self) -> list[str]:
        return sorted(front.name for front in self.tables())

    def describe(self) -> dict[str, Any]:
        return {
            "database": self.name,
            "description": self.description,
            "tables": [front.schema.describe() for front in self.tables()],
            "cluster": self.cluster.describe(),
        }

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(self, sql: str, parameters: dict[str, Any] | None = None) -> SQLResult:
        parameters = parameters or {}
        statement = parse(sql)
        obs = self.observability
        if obs is None:
            return self._execute_statement(statement, sql, parameters)
        with obs.span(f"sql:{self.name}", kind="storage", database=self.name) as span:
            result = self._execute_statement(statement, sql, parameters)
            span.set_attribute("statement_kind", result.statement_kind)
            span.set_attribute("rows", len(result.rows))
            for key in ("shards_scanned", "shards_total", "pruned"):
                if key in self.last_execute_stats:
                    span.set_attribute(key, self.last_execute_stats[key])
            obs.metrics.inc("storage.queries", database=self.name)
            obs.metrics.inc("storage.rows", len(result.rows), database=self.name)
            return result

    def _execute_statement(
        self, statement: ast.Statement, sql: str, parameters: dict[str, Any]
    ) -> SQLResult:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, parameters)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, parameters)
        if isinstance(statement, (ast.Update, ast.Delete)):
            front = self.table(statement.table)
            shards = self._prune(
                statement.where, front, statement.table, parameters
            )
            rowcount = sum(
                self.cluster.append_to(
                    shard, {"op": "sql", "sql": sql, "parameters": parameters}
                )
                for shard in shards
            )
            kind = "update" if isinstance(statement, ast.Update) else "delete"
            self.last_execute_stats = {
                "shards_scanned": len(shards),
                "shards_total": self.cluster.n_shards,
                "pruned": len(shards) < self.cluster.n_shards,
                "path": kind,
                "rows": rowcount,
            }
            return SQLResult(rowcount=rowcount, statement_kind=kind)
        if isinstance(statement, ast.CreateTable):
            schema = TableSchema(
                name=statement.table,
                columns=tuple(
                    Column(
                        name=c.name,
                        type=ColumnType.parse(c.type_name),
                        nullable=not (c.not_null or c.primary_key),
                        primary_key=c.primary_key,
                    )
                    for c in statement.columns
                ),
            )
            self.create_table(schema)
            return SQLResult(statement_kind="create_table")
        if isinstance(statement, ast.CreateIndex):
            self.table(statement.table).create_index(
                statement.column, kind=statement.kind
            )
            return SQLResult(statement_kind="create_index")
        raise StorageError(f"unsupported statement: {statement!r}")

    # -- INSERT --------------------------------------------------------
    def _execute_insert(
        self, statement: ast.Insert, parameters: dict[str, Any]
    ) -> SQLResult:
        front = self.table(statement.table)
        count = 0
        for value_row in statement.rows:
            values = [self._const(expr, parameters) for expr in value_row]
            if any(v is _NOT_CONSTANT for v in values):
                raise StorageError(
                    "sharded INSERT supports literal/parameter values only"
                )
            front.insert(dict(zip(statement.columns, values)))
            count += 1
        return SQLResult(rowcount=count, statement_kind="insert")

    # -- SELECT --------------------------------------------------------
    def _execute_select(
        self, select: ast.Select, parameters: dict[str, Any]
    ) -> SQLResult:
        front = self.table(select.table.name)
        shards = self._prune(
            select.where, front, select.table.binding(), parameters
        )
        pruned = len(shards) < self.cluster.n_shards
        if self._can_push_down(select):
            result = self._pushdown_select(select, parameters, shards)
            path = "pushdown"
        else:
            result = self._gather_select(select, parameters, shards)
            path = "gather"
        self.last_execute_stats = {
            "shards_scanned": len(shards),
            "shards_total": self.cluster.n_shards,
            "pruned": pruned,
            "path": path,
            "rows_scanned": self.last_execute_stats.get("rows_scanned", 0),
            "rows": len(result.rows),
        }
        self.cluster._metric(
            "cluster.shards_scanned", float(len(shards)), database=self.name
        )
        return result

    def _can_push_down(self, select: ast.Select) -> bool:
        if select.joins or select.group_by or select.having is not None:
            return False
        if select.distinct or select.offset:
            return False
        if any(_has_aggregate(item.expr) for item in select.items):
            return False
        for item in select.order_by:
            if not isinstance(item.expr, ast.ColumnRef):
                return False
        return True

    def _pushdown_select(
        self, select: ast.Select, parameters: dict[str, Any], shards: list[int]
    ) -> SQLResult:
        rows: list[dict[str, Any]] = []
        columns: list[str] = []
        scanned = 0
        for state in self.cluster.primary_states(shards):
            if not state.has_table(select.table.name):
                continue
            shard_result = Executor(state, parameters).execute(select)
            rows.extend(shard_result.rows)
            columns = shard_result.columns or columns
            stats = getattr(shard_result, "stats", None)
            if stats is not None:
                scanned += stats.rows_scanned + stats.index_lookups
        if select.order_by and len(shards) > 1:
            for item in reversed(select.order_by):
                name = self._output_name(select, item.expr)
                rows.sort(
                    key=lambda row: _sortable(row.get(name)),
                    reverse=item.descending,
                )
        if select.limit is not None:
            rows = rows[: select.limit]
        self.last_execute_stats = {"rows_scanned": scanned}
        return SQLResult(rows=rows, columns=columns, statement_kind="select")

    @staticmethod
    def _output_name(select: ast.Select, ref: ast.ColumnRef) -> str:
        for item in select.items:
            if item.alias is not None and isinstance(item.expr, ast.ColumnRef):
                if item.expr.name == ref.name:
                    return item.alias
        return ref.name

    def _gather_select(
        self, select: ast.Select, parameters: dict[str, Any], shards: list[int]
    ) -> SQLResult:
        """Run the SQL once over in-place views of the pruned slices."""
        scratch = Database(f"{self.name}:scratch")
        gathered = 0
        refs = [(select.table.name, shards)]
        for join in select.joins:
            join_front = self.table(join.table.name)
            join_shards = self._prune(
                select.where, join_front, join.table.binding(), parameters
            )
            refs.append((join.table.name, join_shards))
        for table_name, table_shards in refs:
            if scratch.has_table(table_name):
                continue
            front = self.table(table_name)
            view = ConcatTable(front.schema, list(front._shard_tables(table_shards)))
            scratch.attach(view)
            gathered += len(view)
        result = Executor(scratch, parameters).execute(select)
        self.last_execute_stats = {"rows_scanned": gathered}
        return result

    # -- pruning -------------------------------------------------------
    def _prune(
        self,
        where: ast.Expr | None,
        front: ShardedTable,
        binding: str,
        parameters: dict[str, Any],
    ) -> list[int]:
        if where is None:
            return self.cluster.ring.all_shards()
        column = front.partition_column
        for conjunct in _conjuncts(where):
            if isinstance(conjunct, ast.Binary) and conjunct.op == "=":
                ref, literal = _column_literal(conjunct.left, conjunct.right)
                if (
                    ref is not None
                    and ref.name.lower() == column.lower()
                    and ref.table in (None, binding)
                ):
                    value = self._const(literal, parameters)
                    if value is not _NOT_CONSTANT:
                        return [front.shard_for_value(value)]
            if (
                isinstance(conjunct, ast.InList)
                and not conjunct.negated
                and isinstance(conjunct.operand, ast.ColumnRef)
                and conjunct.operand.name.lower() == column.lower()
                and conjunct.operand.table in (None, binding)
            ):
                values = [self._const(item, parameters) for item in conjunct.items]
                if all(v is not _NOT_CONSTANT for v in values):
                    return front.shards_for_values(values)
        return self.cluster.ring.all_shards()

    def _const(self, expr: ast.Expr | None, parameters: dict[str, Any]) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Parameter):
            if expr.name in parameters:
                return parameters[expr.name]
            raise StorageError(f"missing SQL parameter: {expr.name!r}")
        return _NOT_CONSTANT

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)

    def export(self) -> dict[str, Any]:
        return self.cluster.export()


def _has_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FunctionCall):
        return expr.is_aggregate or any(_has_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.Binary):
        return _has_aggregate(expr.left) or _has_aggregate(expr.right)
    if isinstance(expr, ast.Unary):
        return _has_aggregate(expr.operand)
    return False
