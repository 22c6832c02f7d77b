"""Execution of parsed SQL statements against a :class:`Database`.

The executor performs a light logical-planning pass for SELECTs:

* **access path** — :func:`sargable` conjuncts on indexed columns of the
  base table turn full scans into index lookups, every usable index
  intersected (``Table.select``; ``stats.used_index`` names them),
* **join strategy** — equi-join conditions become hash joins; anything else
  falls back to a nested-loop join,
* then filtering, grouping, projection, distinct, ordering, and limiting.

Rows travel through the pipeline as the stored tuples themselves — under a
JOIN, their concatenations — with one :data:`Layout` per statement saying
which binding's columns sit at which positions.  Expressions are not
interpreted per row: :func:`compile_expr` turns each distinct AST node into
a closure once per layout, a column reference into a position.  A dict is
built only for a row the statement returns (:meth:`Executor._projector`),
so ``COUNT(*)`` is the selection's length.  A candidate is tested only on
the WHERE's conjuncts no index answered exactly (:meth:`Executor._filter`).
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable

from ....errors import SchemaError, SQLError, StorageError
from ...schema import Column, ColumnType, TableSchema
from ..database import Database, SQLResult
from ..index import Conjunct, group_key, sort_key
from ..table import Residual, Table, residual_of
from . import ast
from .functions import AGGREGATES, SCALAR_FUNCTIONS
from .parser import parse

#: Where a row's columns are: one ``(binding, columns, offset)`` per table
#: binding, in FROM / JOIN order, over the concatenation of the bound rows —
#: a stored table row, or a joined one.
Layout = tuple[tuple[str, tuple[str, ...], int], ...]
Row = tuple[Any, ...]
#: Per-group aggregate results, by the call that asked for them.
Aggregates = dict[ast.FunctionCall, Any] | None
#: A compiled expression: ``evaluate(executor, row, agg_values)``.
Evaluator = Callable[["Executor", Row, Aggregates], Any]

#: Sentinel: an expression that cannot be folded to a constant at plan time.
_NOT_CONSTANT = object()

#: A comparison read right to left: ``5 < age`` is ``age > 5``.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class ExecutionStats:
    """Counters filled in during execution (tests and benches read them)."""

    def __init__(self) -> None:
        self.rows_scanned = 0
        #: Rows (joined rows, under a JOIN) the WHERE's residual ran on.
        self.rows_tested = 0
        self.rows_joined = 0
        self.index_lookups = 0
        #: ``table.column`` of each index intersected for the base rows,
        #: ``+``-joined in conjunct order; None for a scan.
        self.used_index: str | None = None


def execute_sql(
    database: Database, sql: str, parameters: dict[str, Any] | None = None
) -> SQLResult:
    """Parse and execute *sql*; returns a :class:`SQLResult` with ``stats``."""
    statement = parse(sql)
    executor = Executor(database, parameters or {})
    return executor.execute(statement)


class Executor:
    def __init__(self, database: Database, parameters: dict[str, Any]) -> None:
        self._db = database
        self._params = parameters
        self.stats = ExecutionStats()

    def execute(self, statement: ast.Statement) -> SQLResult:
        if isinstance(statement, ast.Select):
            result = self._execute_select(statement)
        elif isinstance(statement, ast.Insert):
            result = self._execute_insert(statement)
        elif isinstance(statement, ast.Update):
            result = self._execute_update(statement)
        elif isinstance(statement, ast.Delete):
            result = self._execute_delete(statement)
        elif isinstance(statement, ast.CreateTable):
            result = self._execute_create_table(statement)
        elif isinstance(statement, ast.CreateIndex):
            result = self._execute_create_index(statement)
        else:  # pragma: no cover - exhaustive over Statement
            raise SQLError(f"unsupported statement: {statement!r}")
        result.stats = self.stats  # type: ignore[attr-defined]
        return result

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _execute_select(self, select: ast.Select) -> SQLResult:
        layout, rows = self._matching_rows(select)
        has_aggregates = any(
            _find_aggregates(item.expr) for item in select.items
        ) or (select.having is not None and _find_aggregates(select.having))
        if select.group_by or has_aggregates:
            output = self._grouped_projection(select, layout, rows)
        else:
            output = list(map(self._projector(select.items, layout), rows))
            output = self._order_rows(select, layout, output, rows)
        # ``*`` names the columns of the rows there are: none without a row
        columns = list(dict.fromkeys(_select_list(select.items, layout if rows else ())[0]))
        if select.distinct:
            output = _distinct_rows(output)
        if select.offset:
            output = output[select.offset :]
        if select.limit is not None:
            output = output[: select.limit]
        return SQLResult(rows=output, columns=columns, statement_kind="select")

    def _matching_rows(self, select: ast.Select) -> tuple[Layout, list[Row]]:
        """The FROM rows (stored, never mutated), joined, that pass the WHERE,
        and their layout: each slice's heap tests its own candidates — under
        a JOIN, the joined rows are tested on what no slice's indexes answered."""
        table = self._db.table(select.table.name)
        binding = select.table.binding()
        layouts = [_bound((), binding, table.schema.column_names())]
        for join in select.joins:  # a missing table raises where the join runs
            known = self._db.has_table(join.table.name)
            columns = self._db.table(join.table.name).schema.column_names() if known else ()
            layouts.append(_bound(layouts[-1], join.table.binding(), columns))
        conjuncts, residual = self._filter(select.where, binding, select.joins, layouts[-1])
        answered: list[set[int]] = []
        selection = table.select(conjuncts, answered.append if select.joins else residual)
        if selection.fields:
            self.stats.used_index = "+".join(f"{table.name}.{c}" for c in selection.fields)
            self.stats.index_lookups += len(selection.fields)
        else:
            self.stats.rows_scanned += selection.examined
        self.stats.rows_tested += selection.tested
        rows = selection.rows
        for join, left, joined in zip(select.joins, layouts, layouts[1:]):
            rows = self._apply_join(rows, join, left, joined)
        passes = residual(set.intersection(*answered)) if answered else None
        if passes is not None:
            self.stats.rows_tested += len(rows)
            rows = [row for row in rows if passes(self, row, None)]
        return layouts[-1], rows

    def _filter(
        self, where: ast.Expr | None, binding: str, joins: tuple[ast.Join, ...] = (),
        layout: Layout | None = None,
    ) -> tuple[list[Conjunct], Residual]:
        """*where* as the row heap reads it: its :func:`sargable` conjuncts and
        the :func:`~..table.residual_of` its leaves, compiled over *layout*,
        make — a test of *binding*'s stored rows (under a JOIN, an evaluator
        of the joined rows; without a layout, a test of a row dict).  A leaf
        is dropped only without a NULL constant (``x = NULL`` is never true)
        and, under a JOIN, if it names *binding* and no join rebinds it (an
        unqualified column may be ambiguous, which must raise)."""
        rebound = joins and any(join.table.binding() == binding for join in joins)
        conjuncts: list[Conjunct] = []
        clauses = []
        for leaf in [] if where is None else _conjuncts(where):
            found = sargable(leaf, binding, self._params)  # the leaf's one conjunct, if any
            _, op, value = found[0] if found else (None, "=", None)
            droppable = found and None not in (value if op == "in" else [value]) and (
                not joins or (_mentions_binding(leaf, binding) and not rebound)
            )
            clauses.append(({len(conjuncts)} if droppable else None, compile_expr(leaf, layout)))
            conjuncts += found
        residual = residual_of(clauses)
        if joins:
            return conjuncts, residual

        def on_rows(exact: set[int]) -> Callable[[Any], bool] | None:
            passes = residual(exact)
            if passes is None or layout is not None:
                return passes and (lambda row: passes(self, row, None))
            return lambda row: passes(self, {binding: row}, None)

        return conjuncts, on_rows

    def _apply_join(
        self, rows: list[Row], join: ast.Join, left: Layout, joined: Layout
    ) -> list[Row]:
        """*rows* (laid out as *left*) each concatenated with the rows of
        *join*'s table it matches (laid out as *joined*)."""
        table = self._db.table(join.table.name)
        binding = join.table.binding()
        right_rows = table.select(()).rows
        self.stats.rows_scanned += len(right_rows)
        columns = table.schema.column_names()
        nulls = (None,) * len(columns)
        equi = _equi_join_key(join.condition, binding)
        output: list[Row] = []
        if equi is not None:
            left_key = compile_expr(equi[0], left)
            buckets: dict[Any, list[Row]] = {}
            if equi[1] in columns:  # else every row has a NULL key: none matches
                at = columns.index(equi[1])
                for row in right_rows:
                    buckets.setdefault(row[at], []).append(row)
            for row in rows:
                key = left_key(self, row, None)
                matches = buckets.get(key, ()) if key is not None else ()
                output += [row + match for match in matches]
                self.stats.rows_joined += len(matches)
                if not matches and join.kind == "left":
                    output.append(row + nulls)
        else:
            condition = None if join.condition is None else compile_expr(join.condition, joined)
            for row in rows:
                matched = False
                for match in right_rows:
                    candidate = row + match
                    if condition is None or _truthy(condition(self, candidate, None)):
                        output.append(candidate)
                        matched = True
                        self.stats.rows_joined += 1
                if not matched and join.kind == "left":
                    output.append(row + nulls)
        return output

    def _grouped_projection(
        self, select: ast.Select, layout: Layout, rows: list[Row]
    ) -> list[dict[str, Any]]:
        groups: dict[tuple, list[Row]] = {}
        if select.group_by:
            keys = [compile_expr(expr, layout) for expr in select.group_by]
            for row in rows:
                key = tuple(group_key(part(self, row, None)) for part in keys)
                groups.setdefault(key, []).append(row)
        elif rows:
            groups[()] = rows
        else:  # the implicit single group, empty: it has no row to read a column of
            groups[()], layout = [], ()
        output: list[dict[str, Any]] = []
        representatives: list[Row] = []
        project = self._projector(select.items, layout)
        having = None if select.having is None else compile_expr(select.having, layout)
        for members in groups.values():
            agg_values = self._compute_aggregates(select, layout, members)
            representative = members[0] if members else ()
            if having is not None and not _truthy(having(self, representative, agg_values)):
                continue
            output.append(project(representative, agg_values))
            representatives.append(representative)
        return self._order_rows(select, layout, output, representatives)

    def _compute_aggregates(
        self, select: ast.Select, layout: Layout, rows: list[Row]
    ) -> dict[ast.FunctionCall, Any]:
        having = () if select.having is None else (select.having,)
        exprs = [*(item.expr for item in select.items), *having, *(o.expr for o in select.order_by)]
        values: dict[ast.FunctionCall, Any] = {}
        for call in dict.fromkeys(chain.from_iterable(map(_find_aggregates, exprs))):
            if call.name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
                values[call] = len(rows)  # COUNT(*) is the group's size
                continue
            if rows and len(call.args) != 1:
                raise SQLError(f"{call.name} expects one argument")
            argument = compile_expr(call.args[0], layout) if rows else None
            arguments = (argument(self, row, None) for row in rows)
            values[call] = AGGREGATES[call.name](arguments, call.distinct)
        return values

    def _projector(
        self, items: tuple[ast.SelectItem, ...], layout: Layout
    ) -> Callable[[Row, Aggregates], dict[str, Any]]:
        """The select list as one function of a row laid out as *layout*: a
        dict is built only here, for a row the statement returns."""
        names, exprs, positions = _select_list(items, layout)
        if positions is not None:  # columns only: one C-level pick
            pick = operator.itemgetter(*positions)
            return lambda row, agg_values=None: dict(zip(names, pick(row)))
        evaluators = [compile_expr(expr, layout) for expr in exprs]
        return lambda row, agg_values=None: dict(
            zip(names, [evaluate(self, row, agg_values) for evaluate in evaluators])
        )

    def _order_rows(
        self,
        select: ast.Select,
        layout: Layout,
        rows: list[dict[str, Any]],
        sources: list[Row],
    ) -> list[dict[str, Any]]:
        """*rows* (each beside the row, laid out as *layout*, it came from)
        by ``sort_key``: one stable sort per key, last key first."""
        if not select.order_by:
            return rows
        pairs = list(zip(rows, sources))
        for order in reversed(select.order_by):
            value = self._order_value(order.expr, layout)
            pairs.sort(key=lambda pair: sort_key(value(*pair)), reverse=order.descending)
        return [row for row, _ in pairs]

    def _order_value(
        self, expr: ast.Expr, layout: Layout
    ) -> Callable[[dict[str, Any], Row], Any]:
        """ORDER BY *expr* as a function of an output row and its source row:
        it may name an output alias or an input column."""
        evaluate = compile_expr(expr, layout)
        name = expr.name if isinstance(expr, ast.ColumnRef) else None
        # a grouped query's aggregate results live in the projected row
        output = _output_name(expr) if _find_aggregates(expr) else None

        def value(row: dict[str, Any], source: Row) -> Any:
            if name in row and expr.table is None:
                return row[name]
            if output in row:
                return row[output]
            try:
                return evaluate(self, source, None)
            except SQLError:
                if name in row:
                    return row[name]
                raise

        return value

    # ------------------------------------------------------------------
    # DML / DDL
    # ------------------------------------------------------------------
    def _execute_insert(self, insert: ast.Insert) -> SQLResult:
        table = self._db.table(insert.table)
        inserted = 0
        for value_tuple in insert.rows:
            if len(value_tuple) != len(insert.columns):
                raise SQLError(
                    f"INSERT column/value count mismatch: "
                    f"{len(insert.columns)} vs {len(value_tuple)}"
                )
            row = {
                column: compile_expr(expr, ())(self, (), None)
                for column, expr in zip(insert.columns, value_tuple)
            }
            table.insert(row)
            inserted += 1
        return SQLResult(rowcount=inserted, statement_kind="insert")

    def _execute_update(self, update: ast.Update) -> SQLResult:
        """One ``Table.replace`` pass: WHERE and SET (``salary = salary * 2``)
        read each stored row as it was before the statement."""
        table = self._db.table(update.table)
        names = table.schema.column_names()
        layout = _bound((), update.table, names)
        assignments = [compile_expr(expr, layout) for _, expr in update.assignments]
        targets = [column for column, _ in update.assignments]
        unknown = sorted(set(targets) - set(names))
        positions = [] if unknown else list(map(names.index, targets))

        def change(row: Row) -> list[Any]:
            values = [value(self, row, None) for value in assignments]
            if unknown:
                raise SchemaError(f"unknown columns for table {table.name!r}: {unknown}")
            new = list(row)
            for at, value in zip(positions, values):
                new[at] = value
            return new

        count = table.replace(*self._filter(update.where, update.table, layout=layout), change)
        return SQLResult(rowcount=count, statement_kind="update")

    def _execute_delete(self, delete: ast.Delete) -> SQLResult:
        table = self._db.table(delete.table)
        layout = _bound((), delete.table, table.schema.column_names())
        count = table.delete(self._filter(delete.where, delete.table, layout=layout))
        return SQLResult(rowcount=count, statement_kind="delete")

    def _execute_create_table(self, create: ast.CreateTable) -> SQLResult:
        columns = [
            Column(
                name=definition.name,
                type=ColumnType.parse(definition.type_name),
                nullable=not (definition.not_null or definition.primary_key),
                primary_key=definition.primary_key,
            )
            for definition in create.columns
        ]
        self._db.create_table(TableSchema(create.table, tuple(columns)))
        return SQLResult(statement_kind="create_table")

    def _execute_create_index(self, create: ast.CreateIndex) -> SQLResult:
        table = self._db.table(create.table)
        if create.kind not in {"hash", "sorted"}:
            raise StorageError(f"unknown index kind: {create.kind!r}")
        table.create_index(create.column, kind=create.kind)
        return SQLResult(statement_kind="create_index")

# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------
@lru_cache(maxsize=4096)
def compile_expr(expr: ast.Expr, layout: Layout | None = None) -> Evaluator:
    """*expr* as a closure ``evaluate(executor, row, agg_values)`` of a row
    laid out as *layout*: a column reference reads the position it
    resolves to there.

    The tree is walked here, once per distinct node and layout — the AST is
    frozen, so the node is the cache key and a statement parsed once compiles
    once, sub-expressions shared between statements included.  Nothing of a
    particular execution is captured: parameters and subqueries are read
    through *executor*, grouped aggregates through *agg_values*, at call
    time.  Errors an expression can only raise on a row (unknown or
    ambiguous column, unknown function, missing parameter, division by zero)
    still raise there.  Without a layout, the closure reads a ``{binding:
    row dict}`` mapping, laid out as it comes.
    """
    if layout is None:

        def on_mapping(executor: Executor, env: dict[str, dict[str, Any]], aggs: Aggregates) -> Any:
            layout: Layout = ()
            for binding, row in env.items():
                layout = _bound(layout, binding, row)
            row = tuple(chain.from_iterable(row.values() for row in env.values()))
            return compile_expr(expr, layout)(executor, row, aggs)

        return on_mapping
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _raises(f"cannot evaluate expression: {expr!r}")
    return compiler(expr, layout)


def _raises(message: str) -> Evaluator:
    def fail(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        raise SQLError(message)

    return fail


def _compile_literal(expr: ast.Literal, layout: Layout) -> Evaluator:
    constant = expr.value
    return lambda executor, row, aggs: constant


def _compile_is_null(expr: ast.IsNull, layout: Layout) -> Evaluator:
    operand, negated = compile_expr(expr.operand, layout), expr.negated
    return lambda executor, row, aggs: (operand(executor, row, aggs) is None) is not negated


def _compile_parameter(expr: ast.Parameter, layout: Layout) -> Evaluator:
    name = expr.name

    def parameter(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        try:
            return executor._params[name]
        except KeyError:
            raise SQLError(f"missing parameter: {name!r}") from None

    return parameter


def _compile_column(ref: ast.ColumnRef, layout: Layout) -> Evaluator:
    at = _position(ref, layout)
    if isinstance(at, str):
        return _raises(at)
    return lambda executor, row, aggs: row[at]


def _compile_unary(expr: ast.Unary, layout: Layout) -> Evaluator:
    operand = compile_expr(expr.operand, layout)
    if expr.op == "-":

        def negative(executor: Executor, row: Row, aggs: Aggregates) -> Any:
            value = operand(executor, row, aggs)
            return None if value is None else -value

        return negative
    if expr.op == "NOT":

        def negation(executor: Executor, row: Row, aggs: Aggregates) -> Any:
            value = operand(executor, row, aggs)
            return None if value is None else not value

        return negation
    return _raises(f"unknown unary operator: {expr.op}")


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise SQLError("division by zero")
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise SQLError("modulo by zero")
    return left % right


#: NULL-propagating binary operators: applied only when both sides are not NULL.
_BINARY_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo,
    "||": lambda left, right: str(left) + str(right),
    "LIKE": lambda left, right: _like(str(left), str(right)),
}


def _compile_binary(expr: ast.Binary, layout: Layout) -> Evaluator:
    left, right = compile_expr(expr.left, layout), compile_expr(expr.right, layout)
    if expr.op in ("AND", "OR"):
        # Three-valued: the absorbing value (FALSE for AND, TRUE for OR)
        # decides alone and skips the right side; else NULL wins.
        absorbing = expr.op == "OR"

        def connective(executor: Executor, row: Row, aggs: Aggregates) -> Any:
            first = left(executor, row, aggs)
            if first is not None and bool(first) is absorbing:
                return absorbing
            second = right(executor, row, aggs)
            if second is not None and bool(second) is absorbing:
                return absorbing
            if first is None or second is None:
                return None
            return not absorbing

        return connective
    apply = _BINARY_OPERATORS.get(expr.op)
    if apply is None:
        return _raises(f"unknown binary operator: {expr.op}")

    def binary(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        first, second = left(executor, row, aggs), right(executor, row, aggs)
        if first is None or second is None:
            return None
        return apply(first, second)

    return binary


def _compile_in_list(expr: ast.InList, layout: Layout) -> Evaluator:
    operand, negated = compile_expr(expr.operand, layout), expr.negated
    items = [compile_expr(item, layout) for item in expr.items]

    def in_list(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        value = operand(executor, row, aggs)
        if value is None:
            return None
        found = value in {item(executor, row, aggs) for item in items}
        return found is not negated

    return in_list


def _compile_between(expr: ast.Between, layout: Layout) -> Evaluator:
    operand, negated = compile_expr(expr.operand, layout), expr.negated
    lower, upper = compile_expr(expr.low, layout), compile_expr(expr.high, layout)

    def between(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        value = operand(executor, row, aggs)
        low, high = lower(executor, row, aggs), upper(executor, row, aggs)
        if value is None or low is None or high is None:
            return None
        return (low <= value <= high) is not negated

    return between


def _compile_subquery(
    expr: ast.Exists | ast.Subquery | ast.InSubquery, layout: Layout
) -> Evaluator:
    select = expr.select
    if isinstance(expr, ast.Exists):
        negated = expr.negated
        return lambda executor, row, aggs: (
            bool(executor._execute_select(select).rows) is not negated
        )
    if isinstance(expr, ast.Subquery):

        def scalar(executor: Executor, row: Row, aggs: Aggregates) -> Any:
            return executor._execute_select(select).scalar()

        return scalar
    operand, negated = compile_expr(expr.operand, layout), expr.negated

    def in_subquery(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        value = operand(executor, row, aggs)
        if value is None:
            return None
        result = executor._execute_select(select)
        if not result.columns:
            return negated
        return (value in set(result.column(result.columns[0]))) is not negated

    return in_subquery


def _compile_function(call: ast.FunctionCall, layout: Layout) -> Evaluator:
    if call.is_aggregate:

        def aggregate(executor: Executor, row: Row, aggs: Aggregates) -> Any:
            if aggs is None or call not in aggs:
                raise SQLError(f"aggregate {call.name} used outside a grouped context")
            return aggs[call]

        return aggregate
    handler = SCALAR_FUNCTIONS.get(call.name)
    if handler is None:
        return _raises(f"unknown function: {call.name}")
    args = [compile_expr(arg, layout) for arg in call.args]
    return lambda executor, row, aggs: handler([arg(executor, row, aggs) for arg in args])


def _compile_case(expr: ast.CaseWhen, layout: Layout) -> Evaluator:
    whens = [
        (compile_expr(when, layout), compile_expr(then, layout)) for when, then in expr.whens
    ]
    default = None if expr.default is None else compile_expr(expr.default, layout)

    def case(executor: Executor, row: Row, aggs: Aggregates) -> Any:
        for when, then in whens:
            if _truthy(when(executor, row, aggs)):
                return then(executor, row, aggs)
        return None if default is None else default(executor, row, aggs)

    return case


_COMPILERS: dict[type, Callable[[Any], Evaluator]] = {
    ast.Literal: _compile_literal,
    ast.Parameter: _compile_parameter,
    ast.ColumnRef: _compile_column,
    ast.Unary: _compile_unary,
    ast.Binary: _compile_binary,
    ast.InList: _compile_in_list,
    ast.Between: _compile_between,
    ast.IsNull: _compile_is_null,
    ast.Exists: _compile_subquery,
    ast.Subquery: _compile_subquery,
    ast.InSubquery: _compile_subquery,
    ast.FunctionCall: _compile_function,
    ast.CaseWhen: _compile_case,
    ast.Star: lambda expr, layout: _raises("'*' is only valid in select lists and COUNT(*)"),
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _truthy(value: Any) -> bool:
    """SQL filter semantics: NULL (None) is not true."""
    return bool(value) and value is not None


def _position(ref: ast.ColumnRef, layout: Layout) -> int | str:
    """The position *ref* reads in a row laid out as *layout*, or the
    message refusing it: an unknown binding or column, or an ambiguous one."""
    found = [
        (binding, offset + columns.index(ref.name))
        for binding, columns, offset in layout
        if ref.table in (None, binding) and ref.name in columns
    ]
    if len(found) == 1:
        return found[0][1]
    if ref.table is None:
        if found:
            return f"ambiguous column {ref.name!r}: in {sorted(binding for binding, _ in found)}"
        return f"unknown column: {ref.name!r}"
    if any(binding == ref.table for binding, _, _ in layout):
        return f"unknown column {ref.name!r} in {ref.table!r}"
    return f"unknown table binding: {ref.table!r}"


@lru_cache(maxsize=1024)
def _select_list(
    items: tuple[ast.SelectItem, ...], layout: Layout
) -> tuple[tuple[str, ...], tuple[ast.Expr, ...], tuple[int, ...] | None]:
    """Each output column's name and expression — ``*`` / ``name.*``
    standing for the columns *layout* binds, in FROM / JOIN order — and,
    when there are two or more and every one is a column, their positions."""
    selected: list[tuple[str, ast.Expr]] = []
    for item in items:
        if not isinstance(item.expr, ast.Star):
            selected.append((item.alias or _output_name(item.expr), item.expr))
            continue
        for binding, columns, _ in layout:
            if item.expr.table in (None, binding):
                selected += [(column, ast.ColumnRef(column, binding)) for column in columns]
    positions = [
        _position(expr, layout) if isinstance(expr, ast.ColumnRef) else None
        for _, expr in selected
    ]
    names, exprs = tuple(name for name, _ in selected), tuple(expr for _, expr in selected)
    columns_only = len(positions) > 1 and all(isinstance(at, int) for at in positions)
    return names, exprs, tuple(positions) if columns_only else None


def _bound(layout: Layout, binding: str, columns: Iterable[str]) -> Layout:
    """*layout* with a row of *columns* appended under *binding*: a binding
    bound again keeps its place and reads the new row."""
    width = max((offset + len(names) for _, names, offset in layout), default=0)
    entry = (binding, tuple(columns), width)
    kept = tuple(entry if name == binding else (name, *rest) for name, *rest in layout)
    return kept if entry in kept else (*kept, entry)


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _constant(expr: ast.Expr, parameters: dict[str, Any]) -> Any:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter):
        if expr.name not in parameters:
            raise SQLError(f"missing parameter: {expr.name!r}")
        return parameters[expr.name]
    return _NOT_CONSTANT


def sargable(
    where: ast.Expr | None, binding: str, parameters: dict[str, Any]
) -> list[Conjunct]:
    """The AND-ed conjuncts comparing a column of *binding* to a constant, in
    the form :mod:`repro.storage.relational.index` reads.  Literals and
    parameters are folded, a column on the right flips the operator, ``in``
    is a non-negated IN list of constants; everything else is skipped."""
    found: list[Conjunct] = []
    for conjunct in _conjuncts(where) if where is not None else ():
        if isinstance(conjunct, ast.Binary) and conjunct.op in _FLIPPED:
            ref, op = conjunct.left, conjunct.op
            value = _constant(conjunct.right, parameters)
            if value is _NOT_CONSTANT:
                ref, op = conjunct.right, _FLIPPED[op]
                value = _constant(conjunct.left, parameters)
        elif isinstance(conjunct, ast.InList) and not conjunct.negated:
            ref, op = conjunct.operand, "in"
            value = [_constant(item, parameters) for item in conjunct.items]
            if any(item is _NOT_CONSTANT for item in value):
                continue
        else:
            continue
        if (
            value is not _NOT_CONSTANT
            and isinstance(ref, ast.ColumnRef)
            and ref.table in (None, binding)
        ):
            found.append((ref.name, op, value))
    return found


def _equi_join_key(
    condition: ast.Expr | None, new_binding: str
) -> tuple[ast.Expr, str] | None:
    """If *condition* is ``existing_expr = new_binding.column``, return
    (existing-side expression, new-side column name) for a hash join."""
    if not isinstance(condition, ast.Binary) or condition.op != "=":
        return None
    left, right = condition.left, condition.right
    if isinstance(right, ast.ColumnRef) and right.table == new_binding:
        if not _mentions_binding(left, new_binding):
            return left, right.name
    if isinstance(left, ast.ColumnRef) and left.table == new_binding:
        if not _mentions_binding(right, new_binding):
            return right, left.name
    return None


def _mentions_binding(expr: ast.Expr, binding: str) -> bool:
    if isinstance(expr, ast.ColumnRef):
        return expr.table == binding
    if isinstance(expr, ast.Binary):
        return _mentions_binding(expr.left, binding) or _mentions_binding(expr.right, binding)
    if isinstance(expr, (ast.Unary, ast.InList)):
        return _mentions_binding(expr.operand, binding)
    if isinstance(expr, ast.FunctionCall):
        return any(_mentions_binding(arg, binding) for arg in expr.args)
    return False


def _find_aggregates(expr: ast.Expr) -> tuple[ast.FunctionCall, ...]:
    """The aggregate calls in *expr*, in tree order, outside subqueries."""
    if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
        return (expr,)
    if isinstance(expr, (ast.Subquery, ast.InSubquery, ast.Exists)):
        return ()
    return tuple(call for child in ast.children(expr) for call in _find_aggregates(child))


def _output_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        if expr.args and isinstance(expr.args[0], ast.Star):
            return f"{expr.name}(*)"
        arg_names = ", ".join(_output_name(arg) for arg in expr.args)
        return f"{expr.name}({arg_names})"
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.Binary):
        return f"{_output_name(expr.left)} {expr.op} {_output_name(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op} {_output_name(expr.operand)}"
    return "expr"


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern[str]:
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(regex, re.IGNORECASE | re.DOTALL)


def _like(text: str, pattern: str) -> bool:
    return _like_regex(pattern).fullmatch(text) is not None


def _distinct_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    seen: set[tuple] = set()
    result = []
    for row in rows:
        key = tuple(map(group_key, row.values()))
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result
