"""Sharded, replicated relational database with SQL fan-out and merge.

Each replica's state is a full single-node :class:`Database` holding the
shard's horizontal slice of every table.  A table routes rows by its
``partition_column`` (defaulting to the primary key), so a WHERE clause
whose ``sargable`` form pins that column (``=`` / ``IN`` constants, read
by ``index.partition_values``) prunes the fan-out to the owning shards.

A SELECT has one path: the router prunes, then runs the statement once
on an ephemeral single-node scratch database whose tables are read-only
views — each the concatenation, in shard order, of the pruned shard
primaries' own tables and indexes
(:class:`~repro.storage.relational.view.ConcatTable`).  No row is copied,
re-validated, or re-indexed, and the one ``Executor`` gives full SQL
semantics: a sharded SELECT returns what a single-node ``Database``
holding the same rows returns.  A primary key present on two gathered
slices (possible when the partition column is not the primary key) is a
``StorageError``.

Writes never take a shortcut.  An INSERT's rows are evaluated and
validated once, at the router — a key its shard or the batch holds twice
refusing them all before any append — routed by partition value, and
quorum-appended as one ``insert_many`` op per touched shard: each replica
puts the logged row tuple itself into its table's row heap, so the log
and every replica share one stored row and no replica re-validates it
(as a CREATE TABLE op carries the router's immutable schema itself).
UPDATE/DELETE replay the statement itself on each pruned shard (all
replicas execute the same SQL in the same order, so their tables stay
identical).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Mapping, TYPE_CHECKING

from ...clock import SimClock
from ...errors import StorageError
from ..relational.database import Database, SQLResult
from ..relational.index import partition_values
from ..relational.sql import ast
from ..relational.sql.executor import Executor, sargable
from ..relational.sql.parser import parse
from ..relational.view import ConcatTable
from ..schema import ColumnType, TableSchema
from .cluster import StoreCluster
from .ring import routing_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability.span import Span


def _make_database() -> Database:
    return Database("shard")


def _apply_relational(state: Database, op: dict[str, Any]) -> Any:
    kind = op["op"]
    if kind == "create_table":
        if not state.has_table(op["schema"].name):  # the router's schema, shared with the log
            state.create_table(op["schema"])
        return None
    if kind == "insert_many":  # the router's stored rows, shared with the log
        return len(state.table(op["table"])._heap.insert_many(op["rows"]))
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
        self._cluster = database.cluster
        self.schema = schema
        self.partition_column = partition_column

    @property
    def name(self) -> str:
        return self.schema.name

    def _route(self, value: Any) -> str:
        return routing_key(self.schema.name.lower(), value)

    def shard_for_value(self, value: Any) -> int:
        return self._cluster.shard_for(self._route(value))

    def shards_for_values(self, values: Iterable[Any]) -> list[int]:
        return self._cluster.ring.shards_for(self._route(v) for v in values)

    # -- mutation ------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> None:
        self.insert_many([row])

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Validate each row once, here, into the stored row the log and
        every replica of its shard share; one quorum append per touched
        shard.  Every row is validated, and its key checked, before the
        first append, so a bad row or a held key appends nothing."""
        rows = list(rows)
        values = [row.get(self.partition_column) for row in rows]
        if self.schema.column(self.partition_column).type is ColumnType.FLOAT:
            # validate_row stores an int as a float: past 2**53 it routes elsewhere
            values = [float(value) if isinstance(value, int) else value for value in values]
        batches = self._cluster.ring.positions_by_shard(map(self._route, values))
        # A shard's rows are built together, so they lie together in memory:
        # built in input order, the shards' rows interleave and scans slow.
        validate = self.schema.validate_row
        stored = {shard: [validate(rows[i]) for i in batch] for shard, batch in batches}
        self._refuse_held_keys(stored)
        return sum(
            self._cluster.append_to(
                shard, {"op": "insert_many", "table": self.schema.name, "rows": batch}
            )
            for shard, batch in stored.items()
        )

    def _refuse_held_keys(self, stored: dict[int, list[tuple[Any, ...]]]) -> None:
        """A primary key its shard holds, or the batch holds twice, refuses
        the batch (a key held on another shard is not looked for)."""
        primary = self.schema.primary_key()
        if primary is None:
            return
        at, seen = self.schema.column_names().index(primary.name), set()
        for shard, batch in stored.items():
            state = self._cluster.shards[shard].primary().state  # a read no metric counts
            held = state.table(self.name).index_on(primary.name).keys()
            for key in map(itemgetter(at), batch):
                if key in seen or key in held:
                    raise StorageError(f"duplicate primary key {key!r} in table {self.name!r}")
                seen.add(key)

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
        #: Stats of the most recent SELECT — span attributes + bench gate.
        self.last_execute_stats: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(
        self, schema: TableSchema, partition_column: str | None = None
    ) -> ShardedTable:
        with self._lock:
            if self.has_table(schema.name):
                raise StorageError(f"table already exists: {schema.name!r}")
            if partition_column is None:
                pk = schema.primary_key()
                partition_column = pk.name if pk is not None else schema.columns[0].name
            if not schema.has_column(partition_column):
                raise StorageError(
                    f"partition column {partition_column!r} not in {schema.name!r}"
                )
            self.cluster.broadcast(
                {"op": "create_table", "schema": schema}
            )
            front = ShardedTable(self, schema, partition_column)
            self.attach(front)  # the inherited catalog holds the router fronts
            return front

    def drop_table(self, name: str) -> None:
        raise StorageError("sharded databases do not support DROP TABLE")

    def data_version(self, table_name: str) -> tuple[int, ...]:
        """Every shard's acked sequence: a primary holds exactly its
        shard's acked ops, so an equal tuple means equal committed data
        (of every table — a write elsewhere only costs a memo a miss)."""
        return tuple(shard.acked for shard in self.cluster.shards)

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "cluster": self.cluster.describe()}

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(self, sql: str, parameters: dict[str, Any] | None = None) -> SQLResult:
        # Defined here, not only inherited: benchmarks/e2e names a wrapped
        # ``execute`` after the class that defines it, and that is how it
        # tells a router statement from the shards' own.
        return super().execute(sql, parameters)

    def _run(self, sql: str, parameters: dict[str, Any], span: Span) -> SQLResult:
        statement = parse(sql)
        if isinstance(statement, ast.Select):
            result = self._execute_select(statement, parameters)
        elif isinstance(statement, (ast.Update, ast.Delete)):
            result = self._execute_update_or_delete(statement, sql, parameters)
        else:
            # INSERT and DDL: the executor calls ``table().insert``,
            # ``create_table`` and ``table().create_index`` on *this*
            # database — the routing and broadcasting overrides.
            result = Executor(self, parameters).execute(statement)
        for key in ("shards_scanned", "shards_total", "pruned"):
            if key in self.last_execute_stats:
                span.set_attribute(key, self.last_execute_stats[key])
        return result

    # -- UPDATE / DELETE -----------------------------------------------
    def _execute_update_or_delete(
        self, statement: ast.Update | ast.Delete, sql: str, parameters: dict[str, Any]
    ) -> SQLResult:
        """Replay the statement itself on each pruned shard."""
        front = self.table(statement.table)
        shards = self._prune(statement.where, front, statement.table, parameters)
        rowcount = self.cluster.append_each(
            shards, {"op": "sql", "sql": sql, "parameters": parameters}
        )
        self.last_execute_stats = {**self._scan_stats(shards), "rows": rowcount}
        kind = "update" if isinstance(statement, ast.Update) else "delete"
        return SQLResult(rowcount=rowcount, statement_kind=kind)

    # -- SELECT --------------------------------------------------------
    def _execute_select(
        self, select: ast.Select, parameters: dict[str, Any]
    ) -> SQLResult:
        """Run the SQL once over in-place views of the pruned slices."""
        scratch = Database(f"{self.name}:scratch")
        shard_sets: list[list[int]] = []
        for ref in (select.table, *(join.table for join in select.joins)):
            if scratch.has_table(ref.name):
                continue  # self-join: the first binding's pruning decides the slices
            front = self.table(ref.name)
            shards = self._prune(select.where, front, ref.binding(), parameters)
            scratch.attach(ConcatTable(front.schema, list(front._shard_tables(shards))))
            shard_sets.append(shards)
        result = Executor(scratch, parameters).execute(select)
        self.last_execute_stats = {
            **self._scan_stats(shard_sets[0]),  # the FROM table's fan-out
            "rows_scanned": sum(len(view) for view in scratch.tables()),
            "rows": len(result.rows),
        }
        return result

    def _scan_stats(self, shards: list[int]) -> dict[str, Any]:
        return self.cluster.scan_stats(
            shards, len(shards) < self.cluster.n_shards, database=self.name
        )

    # -- pruning -------------------------------------------------------
    def _prune(
        self,
        where: ast.Expr | None,
        front: ShardedTable,
        binding: str,
        parameters: dict[str, Any],
    ) -> list[int]:
        values = partition_values(
            sargable(where, binding, parameters), front.partition_column
        )
        if values is None:
            return self.cluster.ring.all_shards()
        return front.shards_for_values(values)

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)

    def export(self) -> dict[str, Any]:
        return self.cluster.export()

