"""Execution of parsed SQL statements against a :class:`Database`.

The executor performs a light logical-planning pass for SELECTs:

* **access path** — :func:`sargable` conjuncts on indexed columns of the
  base table turn full scans into index lookups (``index.choose_index``),
* **join strategy** — equi-join conditions become hash joins; anything else
  falls back to a nested-loop join,
* then filtering, grouping, projection, distinct, ordering, and limiting.

Rows travel through the pipeline as *environments*: mappings from table
binding (alias or name) to the row dict, so qualified and unqualified column
references both resolve naturally.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Iterable

from ....errors import SQLError, StorageError
from ...schema import Column, ColumnType, TableSchema
from ..database import Database, SQLResult
from ..index import Conjunct, choose_index
from ..table import Table
from . import ast
from .functions import SCALAR_FUNCTIONS, make_aggregate
from .parser import parse

Env = dict[str, dict[str, Any]]

#: Sentinel: an expression that cannot be folded to a constant at plan time.
_NOT_CONSTANT = object()

#: A comparison read right to left: ``5 < age`` is ``age > 5``.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class ExecutionStats:
    """Counters filled in during execution (tests and benches read them)."""

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_joined = 0
        self.index_lookups = 0
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
        envs = self._base_rows(select)
        for join in select.joins:
            envs = self._apply_join(envs, join)
        if select.where is not None:
            envs = [env for env in envs if _truthy(self._eval(select.where, env))]
        has_aggregates = any(
            _find_aggregates(item.expr) for item in select.items
        ) or (select.having is not None and _find_aggregates(select.having))
        if select.group_by or has_aggregates:
            rows = self._grouped_projection(select, envs)
        else:
            rows = [self._project(select.items, env) for env in envs]
            rows = self._order_rows(select, rows, envs)
        columns = self._output_columns(select.items, envs)
        if select.distinct:
            rows = _distinct_rows(rows)
        if select.offset:
            rows = rows[select.offset :]
        if select.limit is not None:
            rows = rows[: select.limit]
        return SQLResult(rows=rows, columns=columns, statement_kind="select")

    def _base_rows(self, select: ast.Select) -> list[Env]:
        table = self._db.table(select.table.name)
        binding = select.table.binding()
        chosen = choose_index(
            table.index_on, sargable(select.where, binding, self._params)
        )
        if chosen is None:
            rows = table.rows()
            self.stats.rows_scanned += len(rows)
        else:
            column, row_ids = chosen
            rows = table.get_by_row_ids(row_ids)
            self.stats.used_index = f"{table.name}.{column}"
            self.stats.index_lookups += 1
        return [{binding: row} for row in rows]

    def _apply_join(self, envs: list[Env], join: ast.Join) -> list[Env]:
        table = self._db.table(join.table.name)
        binding = join.table.binding()
        right_rows = table.rows()
        self.stats.rows_scanned += len(right_rows)
        equi = _equi_join_key(join.condition, binding)
        joined: list[Env] = []
        if equi is not None:
            left_key_expr, right_column = equi
            buckets: dict[Any, list[dict[str, Any]]] = {}
            for row in right_rows:
                buckets.setdefault(row.get(right_column), []).append(row)
            for env in envs:
                key = self._eval(left_key_expr, env)
                matches = buckets.get(key, []) if key is not None else []
                for row in matches:
                    joined.append({**env, binding: row})
                    self.stats.rows_joined += 1
                if not matches and join.kind == "left":
                    joined.append({**env, binding: _null_row(table)})
        else:
            for env in envs:
                matched = False
                for row in right_rows:
                    candidate = {**env, binding: row}
                    condition = join.condition
                    if condition is None or _truthy(self._eval(condition, candidate)):
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
            for env in envs:
                key = tuple(
                    _hashable(self._eval(expr, env)) for expr in select.group_by
                )
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = envs  # implicit single group (may be empty)
        rows: list[dict[str, Any]] = []
        representative_envs: list[Env] = []
        for member_envs in groups.values():
            agg_values = self._compute_aggregates(select, member_envs)
            representative = member_envs[0] if member_envs else {}
            if select.having is not None:
                having_value = self._eval(select.having, representative, agg_values)
                if not _truthy(having_value):
                    continue
            rows.append(self._project(select.items, representative, agg_values))
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
            count_star = bool(call.args) and isinstance(call.args[0], ast.Star)
            count_star = count_star or (call.name == "COUNT" and not call.args)
            accumulator = make_aggregate(call.name, count_star, call.distinct)
            for env in envs:
                if count_star:
                    accumulator.add(1)
                else:
                    if len(call.args) != 1:
                        raise SQLError(f"{call.name} expects one argument")
                    accumulator.add(self._eval(call.args[0], env))
            values[call] = accumulator.result()
        return values

    def _project(
        self,
        items: Iterable[ast.SelectItem],
        env: Env,
        agg_values: dict[ast.FunctionCall, Any] | None = None,
    ) -> dict[str, Any]:
        row: dict[str, Any] = {}
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, bound_row in env.items():
                    if item.expr.table is not None and binding != item.expr.table:
                        continue
                    row.update(bound_row)
                continue
            name = item.alias or _output_name(item.expr)
            row[name] = self._eval(item.expr, env, agg_values)
        return row

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
        if not select.order_by:
            return rows
        decorated = []
        for position, row in enumerate(rows):
            env = envs[position] if position < len(envs) else {}
            sort_key = []
            for order in select.order_by:
                value = self._order_value(order.expr, row, env)
                sort_key.append(_SortKey(value, order.descending))
            decorated.append((sort_key, position, row))
        decorated.sort(key=lambda entry: (entry[0], entry[1]))
        return [row for _, _, row in decorated]

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
            return self._eval(expr, env)
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
                column: self._eval(expr, {})
                for column, expr in zip(insert.columns, value_tuple)
            }
            table.insert(row)
            inserted += 1
        return SQLResult(rowcount=inserted, statement_kind="insert")

    def _execute_update(self, update: ast.Update) -> SQLResult:
        table = self._db.table(update.table)
        binding = update.table

        def predicate(row: dict[str, Any]) -> bool:
            if update.where is None:
                return True
            return _truthy(self._eval(update.where, {binding: row}))

        # Assignments may reference current row values (e.g. salary = salary*2),
        # so compute per-row via update's callback contract.
        count = 0
        for row in table.rows():
            if not predicate(row):
                continue
            env = {binding: row}
            changes = {
                column: self._eval(expr, env) for column, expr in update.assignments
            }
            key_column = table.schema.primary_key()
            if key_column is not None:
                key_value = row[key_column.name]
                table.update(lambda r: r[key_column.name] == key_value, changes)
            else:
                frozen = dict(row)
                table.update(lambda r: r == frozen, changes)
            count += 1
        return SQLResult(rowcount=count, statement_kind="update")

    def _execute_delete(self, delete: ast.Delete) -> SQLResult:
        table = self._db.table(delete.table)
        binding = delete.table
        if delete.where is None:
            count = table.delete(lambda row: True)
        else:
            count = table.delete(
                lambda row: _truthy(self._eval(delete.where, {binding: row}))
            )
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

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(
        self,
        expr: ast.Expr,
        env: Env,
        agg_values: dict[ast.FunctionCall, Any] | None = None,
    ) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Parameter):
            if expr.name not in self._params:
                raise SQLError(f"missing parameter: {expr.name!r}")
            return self._params[expr.name]
        if isinstance(expr, ast.ColumnRef):
            return _resolve(env, expr)
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, env, agg_values)
            if expr.op == "-":
                return None if value is None else -value
            if expr.op == "NOT":
                return None if value is None else not _truthy(value)
            raise SQLError(f"unknown unary operator: {expr.op}")
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env, agg_values)
        if isinstance(expr, ast.InList):
            value = self._eval(expr.operand, env, agg_values)
            if value is None:
                return None
            members = {self._eval(item, env, agg_values) for item in expr.items}
            found = value in members
            return (not found) if expr.negated else found
        if isinstance(expr, ast.Between):
            value = self._eval(expr.operand, env, agg_values)
            low = self._eval(expr.low, env, agg_values)
            high = self._eval(expr.high, env, agg_values)
            if value is None or low is None or high is None:
                return None
            inside = low <= value <= high
            return (not inside) if expr.negated else inside
        if isinstance(expr, ast.IsNull):
            value = self._eval(expr.operand, env, agg_values)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, ast.Exists):
            result = self._execute_select(expr.select)
            found = bool(result.rows)
            return (not found) if expr.negated else found
        if isinstance(expr, ast.Subquery):
            result = self._execute_select(expr.select)
            if not result.rows or not result.columns:
                return None
            return result.rows[0][result.columns[0]]
        if isinstance(expr, ast.InSubquery):
            value = self._eval(expr.operand, env, agg_values)
            if value is None:
                return None
            result = self._execute_select(expr.select)
            if not result.columns:
                return False if not expr.negated else True
            members = {row[result.columns[0]] for row in result.rows}
            found = value in members
            return (not found) if expr.negated else found
        if isinstance(expr, ast.FunctionCall):
            return self._eval_function(expr, env, agg_values)
        if isinstance(expr, ast.CaseWhen):
            for condition, result in expr.whens:
                if _truthy(self._eval(condition, env, agg_values)):
                    return self._eval(result, env, agg_values)
            if expr.default is not None:
                return self._eval(expr.default, env, agg_values)
            return None
        if isinstance(expr, ast.Star):
            raise SQLError("'*' is only valid in select lists and COUNT(*)")
        raise SQLError(f"cannot evaluate expression: {expr!r}")

    def _eval_binary(
        self,
        expr: ast.Binary,
        env: Env,
        agg_values: dict[ast.FunctionCall, Any] | None,
    ) -> Any:
        op = expr.op
        if op == "AND":
            left = self._eval(expr.left, env, agg_values)
            if left is not None and not _truthy(left):
                return False
            right = self._eval(expr.right, env, agg_values)
            if right is not None and not _truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self._eval(expr.left, env, agg_values)
            if left is not None and _truthy(left):
                return True
            right = self._eval(expr.right, env, agg_values)
            if right is not None and _truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        left = self._eval(expr.left, env, agg_values)
        right = self._eval(expr.right, env, agg_values)
        if op == "||":
            if left is None or right is None:
                return None
            return str(left) + str(right)
        if op == "LIKE":
            if left is None or right is None:
                return None
            return _like(str(left), str(right))
        if left is None or right is None:
            return None
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise SQLError("division by zero")
            result = left / right
            return result
        if op == "%":
            if right == 0:
                raise SQLError("modulo by zero")
            return left % right
        raise SQLError(f"unknown binary operator: {op}")

    def _eval_function(
        self,
        call: ast.FunctionCall,
        env: Env,
        agg_values: dict[ast.FunctionCall, Any] | None,
    ) -> Any:
        if call.is_aggregate:
            if agg_values is None or call not in agg_values:
                raise SQLError(
                    f"aggregate {call.name} used outside a grouped context"
                )
            return agg_values[call]
        handler = SCALAR_FUNCTIONS.get(call.name)
        if handler is None:
            raise SQLError(f"unknown function: {call.name}")
        args = [self._eval(arg, env, agg_values) for arg in call.args]
        return handler(args)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class _SortKey:
    """Ordering wrapper: NULLs first ascending, comparison-safe, reversible."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


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
    if isinstance(expr, ast.Unary):
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
        key = tuple(_hashable(row[k]) for k in row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value
