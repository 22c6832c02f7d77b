"""Scalar functions and aggregate accumulators for the SQL engine."""

from __future__ import annotations

from typing import Any, Callable

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


class Aggregate:
    """Base accumulator; one instance per (group, aggregate expression)."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountAgg(Aggregate):
    def __init__(self, distinct: bool) -> None:
        self._distinct = distinct
        self._count = 0
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            self._seen.add(value)
        else:
            self._count += 1

    def result(self) -> int:
        return len(self._seen) if self._distinct else self._count


class SumAgg(Aggregate):
    def __init__(self) -> None:
        self._total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._total = value if self._total is None else self._total + value

    def result(self) -> Any:
        return self._total


class AvgAgg(Aggregate):
    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._total += value
        self._count += 1

    def result(self) -> Any:
        return self._total / self._count if self._count else None


class MinAgg(Aggregate):
    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value < self._value:
            self._value = value

    def result(self) -> Any:
        return self._value


class MaxAgg(Aggregate):
    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value > self._value:
            self._value = value

    def result(self) -> Any:
        return self._value


def make_aggregate(name: str, distinct: bool = False) -> Aggregate:
    """Instantiate the accumulator for aggregate *name* (``COUNT(*)`` needs
    none: it is the group's size)."""
    if name == "COUNT":
        return CountAgg(distinct)
    if name == "SUM":
        return SumAgg()
    if name == "AVG":
        return AvgAgg()
    if name == "MIN":
        return MinAgg()
    if name == "MAX":
        return MaxAgg()
    raise SQLError(f"unknown aggregate function: {name}")
