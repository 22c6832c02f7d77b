"""Reference interpreters the compiled predicates are tested against.

These are the tree-walking evaluators ``src/`` ran before predicates were
compiled to closures — ``Executor._eval`` / ``_eval_binary`` /
``_eval_function`` for SQL expressions, ``document.query.matches`` for
Mongo-style filters — kept here, re-dispatching per row on purpose, as the
oracle of ``test_compiled_predicate_properties.py``.  One rule differs from
what ``matches`` did: a range operator compares a number with a number or
text with text and is "no match" for any other pair, where it used to leak
a ``TypeError`` (``_comparable`` spells that rule out independently of
``query.order_key``).

The registry section keeps ``SearchableRegistry.search`` and
``DataRegistry.discover_fine`` as they were before their memos — every
entry, field and query re-embedded on every call — as the oracle of
``test_registry_memo_properties.py``.
"""

import math
import re
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.embedding import HashingEmbedder, keyword_overlap
from repro.errors import QueryError, SQLError
from repro.storage.document.query import _MISSING
from repro.storage.relational.sql import ast
from repro.storage.relational.sql.executor import _like, _truthy
from repro.storage.relational.sql.functions import SCALAR_FUNCTIONS

Env = dict[str, dict[str, Any]]


def _resolve(env: Env, ref: ast.ColumnRef) -> Any:
    """A column of a ``{binding: row dict}`` environment, by name."""
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


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def _comparable(value: Any, operand: Any) -> bool:
    number = (bool, int, float)
    if isinstance(value, number) and isinstance(operand, number):
        return True
    return isinstance(value, str) and isinstance(operand, str)


def get_path(document: Mapping[str, Any], path: str) -> Any:
    current: Any = document
    for part in path.split("."):
        if isinstance(current, Mapping) and part in current:
            current = current[part]
        else:
            return _MISSING
    return current


def reference_matches(document: Mapping[str, Any], filter_spec: Mapping[str, Any]) -> bool:
    """Whether *document* satisfies *filter_spec*."""
    for key, condition in filter_spec.items():
        if key == "$or":
            if not _is_clause_list(condition):
                raise QueryError("$or expects a list of filter mappings")
            if not any(reference_matches(document, clause) for clause in condition):
                return False
        elif key == "$and":
            if not _is_clause_list(condition):
                raise QueryError("$and expects a list of filter mappings")
            if not all(reference_matches(document, clause) for clause in condition):
                return False
        elif key == "$not":
            if not isinstance(condition, Mapping):
                raise QueryError("$not expects a filter mapping")
            if reference_matches(document, condition):
                return False
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator: {key!r}")
        else:
            value = get_path(document, key)
            if not _match_value(value, condition):
                return False
    return True


def _is_clause_list(condition: Any) -> bool:
    return isinstance(condition, Sequence) and not isinstance(condition, (str, bytes)) and all(
        isinstance(clause, Mapping) for clause in condition
    )


def _match_value(value: Any, condition: Any) -> bool:
    if isinstance(condition, Mapping) and any(k.startswith("$") for k in condition):
        return all(_apply_operator(value, op, operand) for op, operand in condition.items())
    if value is _MISSING:
        return False
    return value == condition


def _apply_operator(value: Any, op: str, operand: Any) -> bool:
    if op == "$exists":
        exists = value is not _MISSING
        return exists if operand else not exists
    if value is _MISSING:
        return False
    if op == "$eq":
        return value == operand
    if op == "$ne":
        return value != operand
    if op == "$gt":
        return _comparable(value, operand) and value > operand
    if op == "$gte":
        return _comparable(value, operand) and value >= operand
    if op == "$lt":
        return _comparable(value, operand) and value < operand
    if op == "$lte":
        return _comparable(value, operand) and value <= operand
    if op == "$in":
        return value in operand
    if op == "$nin":
        return value not in operand
    if op == "$contains":
        if isinstance(value, str):
            return str(operand).lower() in value.lower()
        if isinstance(value, (list, tuple, set)):
            return operand in value
        return False
    if op == "$regex":
        if not isinstance(value, str):
            return False
        return re.search(str(operand), value, flags=re.IGNORECASE) is not None
    if op == "$size":
        if not isinstance(value, (list, tuple, set, str)):
            return False
        return len(value) == operand
    raise QueryError(f"unknown operator: {op!r}")


# ----------------------------------------------------------------------
# SQL
# ----------------------------------------------------------------------
def reference_eval(
    executor,
    expr: ast.Expr,
    env: Env,
    agg_values: dict[ast.FunctionCall, Any] | None = None,
) -> Any:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter):
        if expr.name not in executor._params:
            raise SQLError(f"missing parameter: {expr.name!r}")
        return executor._params[expr.name]
    if isinstance(expr, ast.ColumnRef):
        return _resolve(env, expr)
    if isinstance(expr, ast.Unary):
        value = reference_eval(executor, expr.operand, env, agg_values)
        if expr.op == "-":
            return None if value is None else -value
        if expr.op == "NOT":
            return None if value is None else not _truthy(value)
        raise SQLError(f"unknown unary operator: {expr.op}")
    if isinstance(expr, ast.Binary):
        return _eval_binary(executor, expr, env, agg_values)
    if isinstance(expr, ast.InList):
        value = reference_eval(executor, expr.operand, env, agg_values)
        if value is None:
            return None
        members = {reference_eval(executor, item, env, agg_values) for item in expr.items}
        found = value in members
        return (not found) if expr.negated else found
    if isinstance(expr, ast.Between):
        value = reference_eval(executor, expr.operand, env, agg_values)
        low = reference_eval(executor, expr.low, env, agg_values)
        high = reference_eval(executor, expr.high, env, agg_values)
        if value is None or low is None or high is None:
            return None
        inside = low <= value <= high
        return (not inside) if expr.negated else inside
    if isinstance(expr, ast.IsNull):
        value = reference_eval(executor, expr.operand, env, agg_values)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.Exists):
        result = executor._execute_select(expr.select)
        found = bool(result.rows)
        return (not found) if expr.negated else found
    if isinstance(expr, ast.Subquery):
        result = executor._execute_select(expr.select)
        if not result.rows or not result.columns:
            return None
        return result.rows[0][result.columns[0]]
    if isinstance(expr, ast.InSubquery):
        value = reference_eval(executor, expr.operand, env, agg_values)
        if value is None:
            return None
        result = executor._execute_select(expr.select)
        if not result.columns:
            return False if not expr.negated else True
        members = {row[result.columns[0]] for row in result.rows}
        found = value in members
        return (not found) if expr.negated else found
    if isinstance(expr, ast.FunctionCall):
        return _eval_function(executor, expr, env, agg_values)
    if isinstance(expr, ast.CaseWhen):
        for condition, result in expr.whens:
            if _truthy(reference_eval(executor, condition, env, agg_values)):
                return reference_eval(executor, result, env, agg_values)
        if expr.default is not None:
            return reference_eval(executor, expr.default, env, agg_values)
        return None
    if isinstance(expr, ast.Star):
        raise SQLError("'*' is only valid in select lists and COUNT(*)")
    raise SQLError(f"cannot evaluate expression: {expr!r}")

def _eval_binary(
    executor,
    expr: ast.Binary,
    env: Env,
    agg_values: dict[ast.FunctionCall, Any] | None,
) -> Any:
    op = expr.op
    if op == "AND":
        left = reference_eval(executor, expr.left, env, agg_values)
        if left is not None and not _truthy(left):
            return False
        right = reference_eval(executor, expr.right, env, agg_values)
        if right is not None and not _truthy(right):
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        left = reference_eval(executor, expr.left, env, agg_values)
        if left is not None and _truthy(left):
            return True
        right = reference_eval(executor, expr.right, env, agg_values)
        if right is not None and _truthy(right):
            return True
        if left is None or right is None:
            return None
        return False
    left = reference_eval(executor, expr.left, env, agg_values)
    right = reference_eval(executor, expr.right, env, agg_values)
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
    executor,
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
    args = [reference_eval(executor, arg, env, agg_values) for arg in call.args]
    return handler(args)


# ----------------------------------------------------------------------
# Registry search
# ----------------------------------------------------------------------
def reference_search(registry, query: str, k: int, method: str, kind: str | None):
    """``SearchableRegistry.search`` as it was before it was memoized:
    every entry re-embedded into a fresh index (registration order, the
    registry's own index configuration), the query re-embedded, every
    entry's text re-tokenized.  Returns ``[(name, score), ...]``."""
    embedder = HashingEmbedder(dim=registry._embedder.dim)
    entries = list(registry._entries.values())  # registration order
    index = registry._new_index()
    for entry in entries:
        index.add(entry.name, embedder.embed(entry.text()))
    by_name = {entry.name: entry for entry in entries}
    scores: dict[str, float] = {}
    if method in {"vector", "hybrid"}:
        query_vector = embedder.embed(query)
        for name, score in index.search(query_vector, k=max(k * 4, 16)):
            scores[name] = max(scores.get(name, 0.0), score)
    if method in {"keyword", "hybrid"}:
        for name in sorted(by_name):
            score = keyword_overlap(query, by_name[name].text())
            if score > 0:
                scores[name] = max(scores.get(name, 0.0), score)
    hits = []
    for name, score in scores.items():
        entry = by_name[name]
        if kind is not None and entry.kind != kind:
            continue
        boosted = score + 0.02 * math.log1p(entry.usage_count) * entry.success_rate()
        hits.append((name, boosted))
    hits.sort(key=lambda hit: (-hit[1], hit[0]))
    return hits[:k]


def reference_discover_fine(registry, concept: str, k: int):
    """``DataRegistry.discover_fine`` before its field vectors were cached:
    every column / document field re-embedded on every call."""
    embedder = HashingEmbedder(dim=registry._embedder.dim)
    scored: list[tuple[str, str, float]] = []
    query_vector = embedder.embed(concept)
    for entry in registry.entries():
        fine_items: list[tuple[str, str]] = []
        if entry.kind == "relational_table":
            for column in entry.metadata.get("schema", {}).get("columns", []):
                text = f"{column['name']} {column.get('description', '')}"
                fine_items.append((column["name"], text))
        elif entry.kind == "document_collection":
            fine_items.extend((name, name) for name in entry.metadata.get("fields", []))
        else:
            continue
        for name, text in fine_items:
            field_vector = embedder.embed(f"{text} {entry.name.replace('_', ' ')}")
            score = float(np.dot(query_vector, field_vector))
            overlap = keyword_overlap(concept, text)
            scored.append((entry.name, name, score + overlap))
    scored.sort(key=lambda item: (-item[2], item[0], item[1]))
    return scored[:k]
