"""Execution of parsed SQL statements against a :class:`Database`.

The executor performs a light logical-planning pass for SELECTs:

* **access path** — :func:`sargable` conjuncts on indexed columns of the
  base table turn full scans into index lookups, every usable index
  intersected (``Table.select``; ``stats.used_index`` names them),
* **join strategy** — equi-join conditions become hash joins; anything else
  falls back to a nested-loop join,
* then filtering, grouping, projection, distinct, ordering, and limiting.

Rows travel through the pipeline as *environments*: mappings from table
binding (alias or name) to the row dict, so qualified and unqualified column
references both resolve naturally.  Expressions are not interpreted per
row: :func:`compile_expr` turns each distinct AST node into a closure once.
A candidate is tested only on the WHERE's conjuncts no index answered
exactly (:meth:`Executor._filter`).
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Any, Callable, Iterable

from ....errors import SQLError, StorageError
from ...schema import Column, ColumnType, TableSchema
from ..database import Database, SQLResult
from ..index import Conjunct, group_key, sort_key
from ..table import Residual, Table, residual_of
from . import ast
from .functions import SCALAR_FUNCTIONS, make_aggregate
from .parser import parse

Env = dict[str, dict[str, Any]]
#: Per-group aggregate results, by the call that asked for them.
Aggregates = dict[ast.FunctionCall, Any] | None
#: A compiled expression: ``evaluate(executor, env, agg_values)``.
Evaluator = Callable[["Executor", Env, Aggregates], Any]

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
        envs = self._matching_rows(select)
        has_aggregates = any(
            _find_aggregates(item.expr) for item in select.items
        ) or (select.having is not None and _find_aggregates(select.having))
        if select.group_by or has_aggregates:
            rows = self._grouped_projection(select, envs)
        else:
            rows = list(map(self._projector(select.items), envs))
            rows = self._order_rows(select, rows, envs)
        columns = self._output_columns(select.items, envs)
        if select.distinct:
            rows = _distinct_rows(rows)
        if select.offset:
            rows = rows[select.offset :]
        if select.limit is not None:
            rows = rows[: select.limit]
        return SQLResult(rows=rows, columns=columns, statement_kind="select")

    def _matching_rows(self, select: ast.Select) -> list[Env]:
        """The FROM rows (stored, never mutated), joined, that pass the WHERE:
        each slice's heap tests its own candidates — under a JOIN, the joined
        rows are tested on what no slice's indexes answered."""
        table = self._db.table(select.table.name)
        binding = select.table.binding()
        conjuncts, residual = self._filter(select.where, binding, select.joins)
        answered: list[set[int]] = []
        selection = table.select(conjuncts, answered.append if select.joins else residual)
        if selection.fields:
            self.stats.used_index = "+".join(f"{table.name}.{c}" for c in selection.fields)
            self.stats.index_lookups += len(selection.fields)
        else:
            self.stats.rows_scanned += selection.examined
        self.stats.rows_tested += selection.tested
        envs = [{binding: row} for row in selection.rows]
        for join in select.joins:
            envs = self._apply_join(envs, join)
        passes = residual(set.intersection(*answered)) if answered else None
        if passes is not None:
            self.stats.rows_tested += len(envs)
            envs = [env for env in envs if passes(self, env, None)]
        return envs

    def _filter(
        self, where: ast.Expr | None, binding: str, joins: tuple[ast.Join, ...] = ()
    ) -> tuple[list[Conjunct], Residual]:
        """*where* as the row heap reads it: its :func:`sargable` conjuncts and
        the :func:`~..table.residual_of` its compiled leaves make, a test of
        *binding*'s rows (under a JOIN, an evaluator of the joined rows).  A leaf is dropped only without
        a NULL constant (``x = NULL`` is never true) and, under a JOIN, if it
        names *binding* and no join rebinds it (an unqualified column may be
        ambiguous, which must raise)."""
        rebound = joins and any(join.table.binding() == binding for join in joins)
        conjuncts: list[Conjunct] = []
        clauses = []
        for leaf in [] if where is None else _conjuncts(where):
            found = sargable(leaf, binding, self._params)  # the leaf's one conjunct, if any
            _, op, value = found[0] if found else (None, "=", None)
            droppable = found and None not in (value if op == "in" else [value]) and (
                not joins or (_mentions_binding(leaf, binding) and not rebound)
            )
            clauses.append(({len(conjuncts)} if droppable else None, compile_expr(leaf)))
            conjuncts += found
        residual = residual_of(clauses)
        if joins:
            return conjuncts, residual

        def on_rows(exact: set[int]) -> Callable[[dict[str, Any]], bool] | None:
            passes = residual(exact)
            return passes and (lambda row: passes(self, {binding: row}, None))

        return conjuncts, on_rows

    def _apply_join(self, envs: list[Env], join: ast.Join) -> list[Env]:
        table = self._db.table(join.table.name)
        binding = join.table.binding()
        right_rows = table.select(()).rows
        self.stats.rows_scanned += len(right_rows)
        equi = _equi_join_key(join.condition, binding)
        joined: list[Env] = []
        if equi is not None:
            left_key = compile_expr(equi[0])
            right_column = equi[1]
            buckets: dict[Any, list[dict[str, Any]]] = {}
            for row in right_rows:
                buckets.setdefault(row.get(right_column), []).append(row)
            for env in envs:
                key = left_key(self, env, None)
                matches = buckets.get(key, []) if key is not None else []
                for row in matches:
                    joined.append({**env, binding: row})
                    self.stats.rows_joined += 1
                if not matches and join.kind == "left":
                    joined.append({**env, binding: _null_row(table)})
        else:
            condition = None if join.condition is None else compile_expr(join.condition)
            for env in envs:
                matched = False
                for row in right_rows:
                    candidate = {**env, binding: row}
                    if condition is None or _truthy(condition(self, candidate, None)):
                        joined.append(candidate)
                        matched = True
                        self.stats.rows_joined += 1
                if not matched and join.kind == "left":
                    joined.append({**env, binding: _null_row(table)})
        return joined

    def _grouped_projection(
        self, select: ast.Select, envs: list[Env]
    ) -> list[dict[str, Any]]:
        groups: dict[tuple, list[Env]] = {}
        if select.group_by:
            keys = [compile_expr(expr) for expr in select.group_by]
            for env in envs:
                key = tuple(group_key(part(self, env, None)) for part in keys)
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = envs  # implicit single group (may be empty)
        rows: list[dict[str, Any]] = []
        representative_envs: list[Env] = []
        project = self._projector(select.items)
        having = None if select.having is None else compile_expr(select.having)
        for member_envs in groups.values():
            agg_values = self._compute_aggregates(select, member_envs)
            representative = member_envs[0] if member_envs else {}
            if having is not None and not _truthy(having(self, representative, agg_values)):
                continue
            rows.append(project(representative, agg_values))
            representative_envs.append(representative)
        return self._order_rows(select, rows, representative_envs)

    def _compute_aggregates(
        self, select: ast.Select, envs: list[Env]
    ) -> dict[ast.FunctionCall, Any]:
        calls: list[ast.FunctionCall] = []
        for item in select.items:
            calls.extend(_find_aggregates(item.expr))
        if select.having is not None:
            calls.extend(_find_aggregates(select.having))
        for order in select.order_by:
            calls.extend(_find_aggregates(order.expr))
        values: dict[ast.FunctionCall, Any] = {}
        for call in calls:
            if call in values:
                continue
            if call.name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
                values[call] = len(envs)  # COUNT(*) is the group's size
                continue
            accumulator = make_aggregate(call.name, call.distinct)
            if envs:
                if len(call.args) != 1:
                    raise SQLError(f"{call.name} expects one argument")
                argument = compile_expr(call.args[0])
                for env in envs:
                    accumulator.add(argument(self, env, None))
            values[call] = accumulator.result()
        return values

    def _projector(
        self, items: Iterable[ast.SelectItem]
    ) -> Callable[[Env, Aggregates], dict[str, Any]]:
        """The select list as one function of a row environment."""
        plan: list[tuple[str | None, Evaluator | None]] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                plan.append((item.expr.table, None))
            else:
                plan.append((item.alias or _output_name(item.expr), compile_expr(item.expr)))

        def project(env: Env, agg_values: Aggregates = None) -> dict[str, Any]:
            row: dict[str, Any] = {}
            for name, evaluate in plan:
                if evaluate is not None:
                    row[name] = evaluate(self, env, agg_values)
                    continue
                for binding, bound_row in env.items():  # ``*`` or ``name.*``
                    if name is None or binding == name:
                        row.update(bound_row)
            return row

        return project

    def _output_columns(
        self, items: Iterable[ast.SelectItem], envs: list[Env]
    ) -> list[str]:
        columns: list[str] = []
        sample = envs[0] if envs else {}
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, bound_row in sample.items():
                    if item.expr.table is not None and binding != item.expr.table:
                        continue
                    columns.extend(c for c in bound_row if c not in columns)
                continue
            name = item.alias or _output_name(item.expr)
            if name not in columns:
                columns.append(name)
        return columns

    def _order_rows(
        self,
        select: ast.Select,
        rows: list[dict[str, Any]],
        envs: list[Env],
    ) -> list[dict[str, Any]]:
        """*rows* (each beside the environment it came from) by ``sort_key``:
        one stable sort per key, last key first."""
        if not select.order_by:
            return rows
        pairs = list(zip(rows, envs))
        for order in reversed(select.order_by):
            pairs.sort(
                key=lambda pair, expr=order.expr: sort_key(self._order_value(expr, *pair)),
                reverse=order.descending,
            )
        return [row for row, _ in pairs]

    def _order_value(self, expr: ast.Expr, row: dict[str, Any], env: Env) -> Any:
        # ORDER BY may reference an output alias or an input column.
        if isinstance(expr, ast.ColumnRef) and expr.table is None and expr.name in row:
            return row[expr.name]
        aggregates = _find_aggregates(expr)
        if aggregates:
            # Grouped query: aggregate results live in the projected row.
            name = _output_name(expr)
            if name in row:
                return row[name]
        try:
            return compile_expr(expr)(self, env, None)
        except SQLError:
            if isinstance(expr, ast.ColumnRef) and expr.name in row:
                return row[expr.name]
            raise

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
                column: compile_expr(expr)(self, {}, None)
                for column, expr in zip(insert.columns, value_tuple)
            }
            table.insert(row)
            inserted += 1
        return SQLResult(rowcount=inserted, statement_kind="insert")

    def _execute_update(self, update: ast.Update) -> SQLResult:
        """One ``Table.update`` pass: WHERE and SET (``salary = salary * 2``)
        read each row as it was before the statement."""
        table = self._db.table(update.table)
        binding = update.table
        assignments = [(column, compile_expr(expr)) for column, expr in update.assignments]
        count = table.update(
            self._filter(update.where, binding),
            lambda row: {col: value(self, {binding: row}, None) for col, value in assignments},
        )
        return SQLResult(rowcount=count, statement_kind="update")

    def _execute_delete(self, delete: ast.Delete) -> SQLResult:
        table = self._db.table(delete.table)
        count = table.delete(self._filter(delete.where, delete.table))
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
def compile_expr(expr: ast.Expr) -> Evaluator:
    """*expr* as a closure ``evaluate(executor, env, agg_values)``.

    The tree is walked here, once per distinct node — the AST is frozen, so
    the node is the cache key and a statement parsed once compiles once,
    sub-expressions shared between statements included.  Nothing of a
    particular execution is captured: parameters and subqueries are read
    through *executor*, grouped aggregates through *agg_values*, at call
    time.  Errors an expression can only raise on a row (unknown column or
    function, missing parameter, division by zero) still raise there.
    """
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _raises(f"cannot evaluate expression: {expr!r}")
    return compiler(expr)


def _raises(message: str) -> Evaluator:
    def fail(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        raise SQLError(message)

    return fail


def _compile_literal(expr: ast.Literal) -> Evaluator:
    constant = expr.value
    return lambda executor, env, aggs: constant


def _compile_is_null(expr: ast.IsNull) -> Evaluator:
    operand, negated = compile_expr(expr.operand), expr.negated
    return lambda executor, env, aggs: (operand(executor, env, aggs) is None) is not negated


def _compile_parameter(expr: ast.Parameter) -> Evaluator:
    name = expr.name

    def parameter(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        try:
            return executor._params[name]
        except KeyError:
            raise SQLError(f"missing parameter: {name!r}") from None

    return parameter


def _compile_column(ref: ast.ColumnRef) -> Evaluator:
    name, table = ref.name, ref.table

    def qualified(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        try:
            return env[table][name]
        except KeyError:
            return _resolve(env, ref)  # raises: which of the two is unknown

    def unqualified(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        holder = None
        for row in env.values():
            if name in row:
                if holder is not None:
                    return _resolve(env, ref)  # raises: ambiguous
                holder = row
        if holder is None:
            return _resolve(env, ref)  # raises: unknown
        return holder[name]

    return unqualified if table is None else qualified


def _compile_unary(expr: ast.Unary) -> Evaluator:
    operand = compile_expr(expr.operand)
    if expr.op == "-":

        def negative(executor: Executor, env: Env, aggs: Aggregates) -> Any:
            value = operand(executor, env, aggs)
            return None if value is None else -value

        return negative
    if expr.op == "NOT":

        def negation(executor: Executor, env: Env, aggs: Aggregates) -> Any:
            value = operand(executor, env, aggs)
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


def _compile_binary(expr: ast.Binary) -> Evaluator:
    left, right = compile_expr(expr.left), compile_expr(expr.right)
    if expr.op in ("AND", "OR"):
        # Three-valued: the absorbing value (FALSE for AND, TRUE for OR)
        # decides alone and skips the right side; else NULL wins.
        absorbing = expr.op == "OR"

        def connective(executor: Executor, env: Env, aggs: Aggregates) -> Any:
            first = left(executor, env, aggs)
            if first is not None and bool(first) is absorbing:
                return absorbing
            second = right(executor, env, aggs)
            if second is not None and bool(second) is absorbing:
                return absorbing
            if first is None or second is None:
                return None
            return not absorbing

        return connective
    apply = _BINARY_OPERATORS.get(expr.op)
    if apply is None:
        return _raises(f"unknown binary operator: {expr.op}")

    def binary(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        first, second = left(executor, env, aggs), right(executor, env, aggs)
        if first is None or second is None:
            return None
        return apply(first, second)

    return binary


def _compile_in_list(expr: ast.InList) -> Evaluator:
    operand, negated = compile_expr(expr.operand), expr.negated
    items = [compile_expr(item) for item in expr.items]

    def in_list(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        value = operand(executor, env, aggs)
        if value is None:
            return None
        found = value in {item(executor, env, aggs) for item in items}
        return found is not negated

    return in_list


def _compile_between(expr: ast.Between) -> Evaluator:
    operand, negated = compile_expr(expr.operand), expr.negated
    lower, upper = compile_expr(expr.low), compile_expr(expr.high)

    def between(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        value = operand(executor, env, aggs)
        low, high = lower(executor, env, aggs), upper(executor, env, aggs)
        if value is None or low is None or high is None:
            return None
        return (low <= value <= high) is not negated

    return between


def _compile_subquery(expr: ast.Exists | ast.Subquery | ast.InSubquery) -> Evaluator:
    select = expr.select
    if isinstance(expr, ast.Exists):
        negated = expr.negated
        return lambda executor, env, aggs: (
            bool(executor._execute_select(select).rows) is not negated
        )
    if isinstance(expr, ast.Subquery):

        def scalar(executor: Executor, env: Env, aggs: Aggregates) -> Any:
            return executor._execute_select(select).scalar()

        return scalar
    operand, negated = compile_expr(expr.operand), expr.negated

    def in_subquery(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        value = operand(executor, env, aggs)
        if value is None:
            return None
        result = executor._execute_select(select)
        if not result.columns:
            return negated
        return (value in set(result.column(result.columns[0]))) is not negated

    return in_subquery


def _compile_function(call: ast.FunctionCall) -> Evaluator:
    if call.is_aggregate:

        def aggregate(executor: Executor, env: Env, aggs: Aggregates) -> Any:
            if aggs is None or call not in aggs:
                raise SQLError(f"aggregate {call.name} used outside a grouped context")
            return aggs[call]

        return aggregate
    handler = SCALAR_FUNCTIONS.get(call.name)
    if handler is None:
        return _raises(f"unknown function: {call.name}")
    args = [compile_expr(arg) for arg in call.args]
    return lambda executor, env, aggs: handler([arg(executor, env, aggs) for arg in args])


def _compile_case(expr: ast.CaseWhen) -> Evaluator:
    whens = [(compile_expr(when), compile_expr(then)) for when, then in expr.whens]
    default = None if expr.default is None else compile_expr(expr.default)

    def case(executor: Executor, env: Env, aggs: Aggregates) -> Any:
        for when, then in whens:
            if _truthy(when(executor, env, aggs)):
                return then(executor, env, aggs)
        return None if default is None else default(executor, env, aggs)

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
    ast.Star: lambda expr: _raises("'*' is only valid in select lists and COUNT(*)"),
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _truthy(value: Any) -> bool:
    """SQL filter semantics: NULL (None) is not true."""
    return bool(value) and value is not None


def _resolve(env: Env, ref: ast.ColumnRef) -> Any:
    if ref.table is not None:
        if ref.table not in env:
            raise SQLError(f"unknown table binding: {ref.table!r}")
        row = env[ref.table]
        if ref.name not in row:
            raise SQLError(f"unknown column {ref.name!r} in {ref.table!r}")
        return row[ref.name]
    matches = [binding for binding, row in env.items() if ref.name in row]
    if not matches:
        raise SQLError(f"unknown column: {ref.name!r}")
    if len(matches) > 1:
        raise SQLError(f"ambiguous column {ref.name!r}: in {sorted(matches)}")
    return env[matches[0]][ref.name]


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


def _find_aggregates(expr: ast.Expr) -> list[ast.FunctionCall]:
    found: list[ast.FunctionCall] = []
    if isinstance(expr, ast.FunctionCall):
        if expr.is_aggregate:
            found.append(expr)
            return found
        for arg in expr.args:
            found.extend(_find_aggregates(arg))
    elif isinstance(expr, ast.Binary):
        found.extend(_find_aggregates(expr.left))
        found.extend(_find_aggregates(expr.right))
    elif isinstance(expr, ast.Unary):
        found.extend(_find_aggregates(expr.operand))
    elif isinstance(expr, ast.InList):
        found.extend(_find_aggregates(expr.operand))
        for item in expr.items:
            found.extend(_find_aggregates(item))
    elif isinstance(expr, ast.Between):
        for sub in (expr.operand, expr.low, expr.high):
            found.extend(_find_aggregates(sub))
    elif isinstance(expr, ast.IsNull):
        found.extend(_find_aggregates(expr.operand))
    elif isinstance(expr, ast.CaseWhen):
        for condition, result in expr.whens:
            found.extend(_find_aggregates(condition))
            found.extend(_find_aggregates(result))
        if expr.default is not None:
            found.extend(_find_aggregates(expr.default))
    return found


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


def _null_row(table: Table) -> dict[str, Any]:
    return {name: None for name in table.schema.column_names()}


def _distinct_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    seen: set[tuple] = set()
    result = []
    for row in rows:
        key = tuple(map(group_key, row.values()))
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result
