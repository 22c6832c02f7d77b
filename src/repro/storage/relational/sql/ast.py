"""Abstract syntax tree for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Any, Iterator


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    """Base class for expressions."""


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant.  Equal only to a literal of the same value *and type*:
    nodes key caches, and ``1`` / ``1.0`` / ``TRUE`` evaluate differently."""

    value: Any

    def _identity(self) -> tuple[type, Any]:
        return type(self.value), self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())


@dataclass(frozen=True)
class Parameter(Expr):
    name: str


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    table: str | None = None


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-", "NOT"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # =, <>, <, <=, >, >=, +, -, *, /, %, AND, OR, LIKE, ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str  # normalized upper-case
    args: tuple[Expr, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass(frozen=True)
class CaseWhen(Expr):
    whens: tuple[tuple[Expr, Expr], ...]  # (condition, result) pairs
    default: Expr | None = None


@dataclass(frozen=True)
class Subquery(Expr):
    """A scalar subquery: ``(SELECT ...)`` used as a value."""

    select: "Select"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` membership test."""

    operand: Expr
    select: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)`` emptiness test."""

    select: "Select"
    negated: bool = False


def children(node: Any) -> Iterator[Any]:
    """The nodes among *node*'s fields, in field order (tuples, and the
    pairs of a CASE or an UPDATE's SET, flattened; a subquery's SELECT
    included)."""
    for value in vars(node).values():
        for item in value if isinstance(value, tuple) else (value,):
            yield from (child for child in (item if isinstance(item, tuple) else (item,))
                        if is_dataclass(child))


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    table: TableRef
    condition: Expr | None  # None only for CROSS-like joins (not produced)
    kind: str = "inner"  # inner | left


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int = 0
    distinct: bool = False


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    column: str
    kind: str = "hash"  # hash | sorted


Statement = Select | Insert | Update | Delete | CreateTable | CreateIndex
