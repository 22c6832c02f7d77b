"""Scalar and aggregate functions for the SQL engine."""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable, Iterable, Iterator

from ....errors import SQLError


def _require_arity(name: str, args: list[Any], *counts: int) -> None:
    if len(args) not in counts:
        expected = " or ".join(str(c) for c in counts)
        raise SQLError(f"{name} expects {expected} argument(s), got {len(args)}")


def _upper(args: list[Any]) -> Any:
    _require_arity("UPPER", args, 1)
    return None if args[0] is None else str(args[0]).upper()


def _lower(args: list[Any]) -> Any:
    _require_arity("LOWER", args, 1)
    return None if args[0] is None else str(args[0]).lower()


def _length(args: list[Any]) -> Any:
    _require_arity("LENGTH", args, 1)
    return None if args[0] is None else len(str(args[0]))


def _abs(args: list[Any]) -> Any:
    _require_arity("ABS", args, 1)
    return None if args[0] is None else abs(args[0])


def _round(args: list[Any]) -> Any:
    _require_arity("ROUND", args, 1, 2)
    if args[0] is None:
        return None
    digits = int(args[1]) if len(args) == 2 else 0
    return round(float(args[0]), digits)


def _coalesce(args: list[Any]) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _substr(args: list[Any]) -> Any:
    _require_arity("SUBSTR", args, 2, 3)
    if args[0] is None:
        return None
    text = str(args[0])
    start = int(args[1]) - 1  # SQL is 1-indexed
    if start < 0:
        start = 0
    if len(args) == 3:
        return text[start : start + int(args[2])]
    return text[start:]


def _concat(args: list[Any]) -> Any:
    return "".join("" if value is None else str(value) for value in args)


def _trim(args: list[Any]) -> Any:
    _require_arity("TRIM", args, 1)
    return None if args[0] is None else str(args[0]).strip()


def _replace(args: list[Any]) -> Any:
    _require_arity("REPLACE", args, 3)
    if args[0] is None:
        return None
    return str(args[0]).replace(str(args[1]), str(args[2]))


SCALAR_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "UPPER": _upper,
    "LOWER": _lower,
    "LENGTH": _length,
    "ABS": _abs,
    "ROUND": _round,
    "COALESCE": _coalesce,
    "SUBSTR": _substr,
    "CONCAT": _concat,
    "TRIM": _trim,
    "REPLACE": _replace,
}


def _present(values: Iterable[Any]) -> Iterator[Any]:
    return (value for value in values if value is not None)


def _average(values: Iterable[Any], distinct: bool) -> Any:
    total, count = 0.0, 0
    for value in _present(values):
        total, count = total + value, count + 1
    return total / count if count else None


#: Each aggregate as a function of its group's argument values (read as they
#: are evaluated, NULLs skipped) and its DISTINCT flag, which COUNT alone
#: reads; ``COUNT(*)`` needs none: it is the group's size.
AGGREGATES: dict[str, Callable[[Iterable[Any], bool], Any]] = {
    "COUNT": lambda values, distinct: (
        len(set(_present(values))) if distinct else sum(1 for _ in _present(values))
    ),
    "SUM": lambda values, distinct: reduce(
        lambda total, value: value if total is None else total + value, _present(values), None
    ),
    "AVG": _average,
    "MIN": lambda values, distinct: min(_present(values), default=None),
    "MAX": lambda values, distinct: max(_present(values), default=None),
}
