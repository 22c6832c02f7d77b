"""Sharded, replicated relational database with SQL fan-out and merge.

Each replica's state is a full single-node :class:`Database` holding the
shard's horizontal slice of every table.  A table routes rows by its
``partition_column`` (defaulting to the primary key), so a WHERE clause
whose ``sargable`` form pins that column (``=`` / ``IN`` constants, read
by ``index.partition_values``) prunes the fan-out to the owning shards.

A SELECT, UPDATE or DELETE has one path: the router prunes, then runs
the statement once on an ephemeral single-node scratch database whose
tables are read-only views — each the concatenation, in shard order, of
the pruned shard primaries' own tables and indexes
(:class:`~repro.storage.relational.view.ConcatTable`) — so it answers as
a single-node ``Database`` holding the same rows.  A statement with a
subquery is not pruned.  A primary key present on two gathered slices
(possible when the partition column is not the primary key) is a
``StorageError``.

Replicas log effects, not statements: every write is one
``StoreCluster.write``.  An INSERT logs the rows validated once at the
router; an UPDATE / DELETE logs the images or row ids decided on the views
(its table fronts looked up first: the catalog lock is never taken under a
shard's).  A replica never parses or filters.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, TYPE_CHECKING

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
    if kind == "replace_rows":  # the router's decided images, shared with the log
        return state.table(op["table"])._heap.put(op["rows"])
    if kind == "remove_rows":  # the router's decided row ids
        return state.table(op["table"])._heap.drop(op["rows"])
    if kind == "create_index":
        table = state.table(op["table"])
        if op["column"] not in table.indexed_columns():
            table.create_index(op["column"], kind=op["kind"])
        return None
    raise StorageError(f"unknown relational op: {kind}")


@lru_cache(maxsize=512)
def _subquery_tables(sql: str) -> tuple[str, ...]:
    """The tables the subqueries of *sql* name (none: it has no subquery)."""
    return tuple(dict.fromkeys(_nested_tables(parse(sql))))


def _nested_tables(node: Any) -> Iterator[str]:
    for child in ast.children(node):
        if isinstance(child, (ast.Subquery, ast.InSubquery, ast.Exists)):
            yield from (ref.name for ref in _refs(child.select))
        yield from _nested_tables(child)


def _refs(statement: ast.Select | ast.Update | ast.Delete) -> tuple[ast.TableRef, ...]:
    """The tables a statement's FROM and JOINs bind (an UPDATE / DELETE: its own)."""
    if not isinstance(statement, ast.Select):
        return (ast.TableRef(statement.table),)
    return (statement.table, *(join.table for join in statement.joins))


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
        every replica of its shard share, before the shards are locked; its
        key is checked under their locks."""
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
        primary = self.schema.primary_key()

        def refuse_held_keys() -> list[list[tuple[Any, ...]]]:
            """A primary key its shard holds, or the batch holds twice, refuses
            the batch (a key held on another shard is not looked for)."""
            if primary is not None:
                at, seen = self.schema.column_names().index(primary.name), set()
                for shard, batch in stored.items():
                    state = self._cluster.shards[shard].primary().state  # a read no metric counts
                    held = state.table(self.name).index_on(primary.name).keys()
                    for key in map(itemgetter(at), batch):
                        if key in seen or key in held:
                            raise StorageError(f"duplicate primary key {key!r} in table {self.name!r}")
                        seen.add(key)
            return list(stored.values())

        return sum(self._cluster.write(
            list(stored), refuse_held_keys,
            lambda batch: {"op": "insert_many", "table": self.schema.name, "rows": batch},
        ))

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
        #: Stats of the most recent statement (``{}`` for INSERT / DDL) —
        #: its span attributes + bench gate.
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
        self.last_execute_stats = {}  # INSERT and DDL scan nothing; a refused write reports nothing
        if isinstance(statement, ast.Select):
            result = self._execute_select(statement, sql, parameters)
        elif isinstance(statement, (ast.Update, ast.Delete)):
            result = self._execute_write(statement, sql, parameters)
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
    def _execute_write(
        self, statement: ast.Update | ast.Delete, sql: str, parameters: dict[str, Any]
    ) -> SQLResult:
        """Decide the statement once, over views of the pruned slices, under
        their shards' locks; then append each touched shard's effect."""
        bindings = self._bindings(statement, sql, parameters)
        front, shards = bindings[0]
        kind = "replace_rows" if isinstance(statement, ast.Update) else "remove_rows"
        results = []

        def decide() -> list[Any]:
            scratch = self._scratch(bindings)
            results.append(Executor(scratch, parameters).execute(statement))
            return scratch.table(front.name).effects

        self.cluster.write(
            shards, decide, lambda effect: {"op": kind, "table": front.name, "rows": effect}
        )
        result = results[0]
        self.last_execute_stats = {**self._scan_stats(shards), "rows": result.rowcount}
        return result

    # -- SELECT --------------------------------------------------------
    def _execute_select(
        self, select: ast.Select, sql: str, parameters: dict[str, Any]
    ) -> SQLResult:
        """Run the SQL once over in-place views of the pruned slices."""
        bindings = self._bindings(select, sql, parameters)
        scratch = self._scratch(bindings)
        result = Executor(scratch, parameters).execute(select)
        self.last_execute_stats = {
            **self._scan_stats(bindings[0][1]),  # the FROM table's fan-out
            "rows_scanned": sum(len(view) for view in scratch.tables()),
            "rows": len(result.rows),
        }
        return result

    def _bindings(
        self, statement: ast.Select | ast.Update | ast.Delete, sql: str, parameters: dict[str, Any]
    ) -> list[tuple[ShardedTable, list[int]]]:
        """The front of each table the statement reads, with the shards its
        slices are read from, pruned by the WHERE; the FROM table first.  A
        statement with a subquery is not pruned, and reads every table a
        subquery names too.  A self-join's later bindings read the first's
        slices.  Resolved before any shard lock is taken: the catalog lock
        is taken before a shard's (``create_table``), never after."""
        nested = _subquery_tables(sql)
        where = None if nested else statement.where
        bound: dict[str, tuple[ShardedTable, list[int]]] = {}
        for ref in (*_refs(statement), *map(ast.TableRef, nested)):
            if ref.name.lower() not in bound:
                front = self.table(ref.name)
                bound[ref.name.lower()] = front, self._prune(where, front, ref.binding(), parameters)
        return list(bound.values())

    def _scratch(self, bindings: list[tuple[ShardedTable, list[int]]]) -> Database:
        """A scratch database of views over each binding's slices."""
        scratch = Database(f"{self.name}:scratch")
        for front, shards in bindings:
            scratch.attach(ConcatTable(front.schema, list(front._shard_tables(shards))))
        return scratch

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

