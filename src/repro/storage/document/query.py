"""Filter language for the document store.

Filters are Mongo-style mappings.  A filter matches a document when every
top-level entry matches.  Values are matched by equality unless they are an
operator mapping:

    {"title": "Data Scientist"}                       equality
    {"salary": {"$gte": 150000}}                      comparison
    {"location": {"$in": ["San Francisco", "Oakland"]}}
    {"skills": {"$contains": "python"}}               membership in a list field
    {"summary": {"$regex": "machine learning"}}       regex search
    {"$or": [{...}, {...}]}, {"$and": [...]}, {"$not": {...}}

Dotted paths descend into nested documents: ``{"address.city": "SF"}``.
"""

from __future__ import annotations

import re
from typing import Any, Mapping, Sequence

from ...errors import QueryError

_MISSING = object()


def get_path(document: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted *path* in *document*; returns _MISSING when absent."""
    current: Any = document
    for part in path.split("."):
        if isinstance(current, Mapping) and part in current:
            current = current[part]
        else:
            return _MISSING
    return current


def matches(document: Mapping[str, Any], filter_spec: Mapping[str, Any]) -> bool:
    """Whether *document* satisfies *filter_spec*."""
    for key, condition in filter_spec.items():
        if key == "$or":
            if not _is_clause_list(condition):
                raise QueryError("$or expects a list of filter mappings")
            if not any(matches(document, clause) for clause in condition):
                return False
        elif key == "$and":
            if not _is_clause_list(condition):
                raise QueryError("$and expects a list of filter mappings")
            if not all(matches(document, clause) for clause in condition):
                return False
        elif key == "$not":
            if not isinstance(condition, Mapping):
                raise QueryError("$not expects a filter mapping")
            if matches(document, condition):
                return False
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator: {key!r}")
        else:
            value = get_path(document, key)
            if not _match_value(value, condition):
                return False
    return True


def hashable(value: Any) -> bool:
    """Whether an index or the shard router may key on *value*: a list or
    sub-document matches by ``==``, which no derived key reproduces (equal
    dicts ``repr`` differently, ``[1] == [1.0]``)."""
    return not isinstance(value, (list, dict, set))


def sargable(filter_spec: Mapping[str, Any]) -> list[tuple[str, str, Any]]:
    """The top-level entries pinning a field to hashable constants, in the
    form :mod:`repro.storage.relational.index` reads: ``(field, "=", value)``
    for equality / ``$eq``, ``(field, "in", [values])`` for ``$in``.
    Everything else stays a scan."""
    found = []
    for field, condition in filter_spec.items():
        if field.startswith("$"):
            continue
        if not isinstance(condition, Mapping):
            op, pinned = "=", [condition]
        elif "$eq" in condition:
            op, pinned = "=", [condition["$eq"]]
        elif isinstance(condition.get("$in"), (list, tuple)):
            op, pinned = "in", list(condition["$in"])
        else:
            continue
        if all(map(hashable, pinned)):
            found.append((field, op, pinned if op == "in" else pinned[0]))
    return found


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
        return value is not None and value > operand
    if op == "$gte":
        return value is not None and value >= operand
    if op == "$lt":
        return value is not None and value < operand
    if op == "$lte":
        return value is not None and value <= operand
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


def project(document: Mapping[str, Any], fields: Sequence[str] | None) -> dict[str, Any]:
    """Keep only *fields* (dotted paths allowed); None keeps everything."""
    if fields is None:
        return dict(document)
    result: dict[str, Any] = {}
    for field in fields:
        value = get_path(document, field)
        if value is not _MISSING:
            result[field] = value
    return result
