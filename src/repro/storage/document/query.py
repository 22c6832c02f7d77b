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

A filter is compiled to a closure once (:func:`compile_filter`) and the
closure applied per document.  The range operators compare within a type
bracket only (``relational.index.order_key``: numbers with numbers, text
with text), so a comparison across types is "no match", never a
``TypeError``.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Mapping, Sequence

from ...errors import QueryError
from ..relational.index import MISSING as _MISSING
from ..relational.index import Conjunct, order_key
from ..relational.table import Residual, residual_of

Test = Callable[[Any], bool]


def get_path(document: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted *path* in *document*; returns _MISSING when absent."""
    return _walk(document, path.split("."))


def _walk(document: Any, parts: Sequence[str]) -> Any:
    current = document
    for part in parts:
        # the dict test spares stored documents (a dict subclass) the ABC machinery
        if (isinstance(current, dict) or isinstance(current, Mapping)) and part in current:
            current = current[part]
        else:
            return _MISSING
    return current


def matches(document: Mapping[str, Any], filter_spec: Mapping[str, Any]) -> bool:
    """Whether *document* satisfies *filter_spec*."""
    return bool(compile_filter(filter_spec)(document))


def compile_filter(filter_spec: Mapping[str, Any]) -> Test:
    """*filter_spec* as one closure over a document.

    Everything the filter fixes — operator dispatch, path splitting, clause
    validation, regex compilation — happens here, once, so a malformed
    filter raises ``QueryError`` before any document is read (even when no
    document would have reached the bad clause).  Entries and operators
    apply in filter order and short-circuit, as written."""
    return _all_of([_compile_entry(key, cond) for key, cond in filter_spec.items()])


def _all_of(tests: Sequence[Test]) -> Test:
    if not tests:
        return lambda subject: True
    if len(tests) == 1:
        return tests[0]

    def conjunction(subject: Any) -> bool:
        for test in tests:
            if not test(subject):
                return False
        return True

    return conjunction


def _compile_entry(key: str, condition: Any) -> Test:
    if key in ("$or", "$and"):
        if not _is_clause_list(condition):
            raise QueryError(f"{key} expects a list of filter mappings")
        clauses = [compile_filter(clause) for clause in condition]
        if key == "$and":
            return _all_of(clauses)
        return lambda document: any(clause(document) for clause in clauses)
    if key == "$not":
        if not isinstance(condition, Mapping):
            raise QueryError("$not expects a filter mapping")
        negated = compile_filter(condition)
        return lambda document: not negated(document)
    if key.startswith("$"):
        raise QueryError(f"unknown top-level operator: {key!r}")
    test = _compile_condition(condition)
    if "." not in key:
        return lambda document: test(document.get(key, _MISSING))
    parts = key.split(".")
    return lambda document: test(_walk(document, parts))


def _compile_condition(condition: Any) -> Test:
    """A test of a field's value, which is ``_MISSING`` when absent."""
    if isinstance(condition, Mapping) and any(k.startswith("$") for k in condition):
        return _all_of([_compile_operator(op, arg) for op, arg in condition.items()])
    return lambda value: value == condition  # _MISSING equals nothing


_COMPARISONS = {
    "$gt": operator.gt, "$gte": operator.ge, "$lt": operator.lt, "$lte": operator.le,
}


def _compile_operator(op: str, operand: Any) -> Test:
    if op == "$exists":
        wanted = bool(operand)
        return lambda value: (value is not _MISSING) is wanted
    if op == "$eq":
        return lambda value: value == operand
    if op == "$ne":
        return lambda value: value is not _MISSING and value != operand
    if op in _COMPARISONS:
        compare, key = _COMPARISONS[op], order_key(operand)
        if key is None:
            return lambda value: False
        bracket = str if key[0] == 2 else (int, float)
        return lambda value: isinstance(value, bracket) and compare(value, operand)
    if op == "$in":
        return lambda value: value is not _MISSING and value in operand
    if op == "$nin":
        return lambda value: value is not _MISSING and value not in operand
    if op == "$contains":
        needle = str(operand).lower()

        def contains(value: Any) -> bool:
            if isinstance(value, str):
                return needle in value.lower()
            return isinstance(value, (list, tuple, set)) and operand in value

        return contains
    if op == "$regex":
        pattern = re.compile(str(operand), flags=re.IGNORECASE)
        return lambda value: isinstance(value, str) and pattern.search(value) is not None
    if op == "$size":
        return lambda value: (
            isinstance(value, (list, tuple, set, str)) and len(value) == operand
        )
    raise QueryError(f"unknown operator: {op!r}")


def hashable(value: Any) -> bool:
    """Whether an index or the shard router may key on *value*: a list or
    sub-document (or a tuple holding one) matches by ``==``, which no derived
    key reproduces (equal dicts ``repr`` differently, ``[1] == [1.0]``)."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


_RANGES = {"$gt": ">", "$gte": ">=", "$lt": "<", "$lte": "<="}


def sargable(filter_spec: Mapping[str, Any]) -> list[Conjunct]:
    """The top-level entries comparing a field to constants, in the form
    :mod:`repro.storage.relational.index` reads: ``(field, "=", value)`` for
    equality / ``$eq`` and ``(field, "in", [values])`` for ``$in`` over
    hashable constants, ``(field, ">", value)`` (``>=`` ``<`` ``<=``) for a
    range operator whose constant has an :func:`order_key`.  Everything
    else stays a scan."""
    return [found for entry in filter_spec.items() for found in _entry_conjuncts(*entry)[0]]


def _entry_conjuncts(field: str, condition: Any) -> tuple[list[Conjunct], bool]:
    """One entry's sargable conjuncts, and whether every operator in it has one."""
    if field.startswith("$"):
        return [], False
    if not isinstance(condition, Mapping):
        condition = {"$eq": condition}
    found = []
    for op, operand in condition.items():
        if op == "$eq" and hashable(operand):
            found.append((field, "=", operand))
        elif op == "$in" and isinstance(operand, (list, tuple)):
            if all(map(hashable, operand)):
                found.append((field, "in", list(operand)))
        elif op in _RANGES and order_key(operand) is not None:
            found.append((field, _RANGES[op], operand))
    return found, len(found) == len(condition)


def compile_where(filter_spec: Mapping[str, Any]) -> tuple[list[Conjunct], Residual]:
    """*filter_spec* as the row heap reads it: its :func:`sargable`
    conjuncts and the :func:`~..relational.table.residual_of` its entries
    make, each compiled here.  An entry is dropped only when every operator
    in it was answered (``{"$gte": 1, "$regex": "a"}`` keeps its test)."""
    conjuncts: list[Conjunct] = []
    clauses = []
    for field, condition in filter_spec.items():
        found, whole = _entry_conjuncts(field, condition)
        answers = set(range(len(conjuncts), len(conjuncts) + len(found)))
        clauses.append((answers if found and whole else None, _compile_entry(field, condition)))
        conjuncts += found
    return conjuncts, residual_of(clauses)


def _is_clause_list(condition: Any) -> bool:
    return isinstance(condition, Sequence) and not isinstance(condition, (str, bytes)) and all(
        isinstance(clause, Mapping) for clause in condition
    )


def project(document: Mapping[str, Any], fields: Sequence[str] | None) -> Mapping[str, Any]:
    """A new dict of only *fields* (dotted paths allowed); None keeps the
    document itself, uncopied."""
    if fields is None:
        return document
    result: dict[str, Any] = {}
    for field in fields:
        value = get_path(document, field)
        if value is not _MISSING:
            result[field] = value
    return result
