"""Recursive-descent parser for the supported SQL subset.

Grammar (informal):

    select   := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                [GROUP BY expr_list [HAVING expr]]
                [ORDER BY order_list] [LIMIT n [OFFSET m]]
    join     := [INNER | LEFT [OUTER]] JOIN table_ref ON expr
    insert   := INSERT INTO name '(' cols ')' VALUES tuple (',' tuple)*
    update   := UPDATE name SET assign (',' assign)* [WHERE expr]
    delete   := DELETE FROM name [WHERE expr]
    create   := CREATE TABLE name '(' coldef (',' coldef)* ')'
              | CREATE INDEX name ON table '(' column ')' [USING kind]

Expressions support the usual precedence: OR < AND < NOT < comparison
(=, <>, <, <=, >, >=, LIKE, IN, BETWEEN, IS NULL) < additive < multiplicative
< unary < primary (literals, refs, functions, CASE, parens, parameters).
"""

from __future__ import annotations

from functools import lru_cache

from ....errors import SQLError
from . import ast
from .lexer import Token, TokenType, tokenize

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}

#: Keywords usable as plain identifiers (column names like ``key``).
#: They are lowercased when used that way, since the lexer normalizes
#: keyword case.
NON_RESERVED = frozenset({"KEY", "INDEX"})


class Parser:
    def __init__(self, sql: str) -> None:
        self._tokens = tokenize(sql)
        self._pos = 0
        self._sql = sql

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _match_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise SQLError(
                f"expected {'/'.join(names)} at position {token.position}, "
                f"got {token.value!r}"
            )
        return self._advance()

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        token = self._peek()
        if token.type is not TokenType.PUNCT or token.value != value:
            raise SQLError(f"expected {value!r} at position {token.position}, got {token.value!r}")
        self._advance()

    def _match_operator(self, *values: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in values:
            return self._advance()
        return None

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in NON_RESERVED:
            self._advance()
            return token.value.lower()
        if token.type is not TokenType.IDENTIFIER:
            raise SQLError(f"expected identifier at position {token.position}, got {token.value!r}")
        self._advance()
        return token.value

    def _expect_integer(self) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER or "." in token.value:
            raise SQLError(f"expected integer at position {token.position}, got {token.value!r}")
        self._advance()
        return int(token.value)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("SELECT"):
            statement: ast.Statement = self._parse_select()
        elif token.is_keyword("INSERT"):
            statement = self._parse_insert()
        elif token.is_keyword("UPDATE"):
            statement = self._parse_update()
        elif token.is_keyword("DELETE"):
            statement = self._parse_delete()
        elif token.is_keyword("CREATE"):
            statement = self._parse_create()
        else:
            raise SQLError(f"unsupported statement starting with {token.value!r}")
        trailing = self._peek()
        if trailing.type is not TokenType.EOF:
            raise SQLError(f"unexpected trailing input at {trailing.position}: {trailing.value!r}")
        return statement

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        table = self._parse_table_ref()
        joins: list[ast.Join] = []
        while True:
            kind = None
            if self._match_keyword("JOIN"):
                kind = "inner"
            elif self._peek().is_keyword("INNER"):
                self._advance()
                self._expect_keyword("JOIN")
                kind = "inner"
            elif self._peek().is_keyword("LEFT"):
                self._advance()
                self._match_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "left"
            if kind is None:
                break
            join_table = self._parse_table_ref()
            self._expect_keyword("ON")
            condition = self._parse_expr()
            joins.append(ast.Join(join_table, condition, kind))
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        group_by: list[ast.Expr] = []
        having = None
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._match_punct(","):
                group_by.append(self._parse_expr())
            if self._match_keyword("HAVING"):
                having = self._parse_expr()
        order_by: list[ast.OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())
        limit = None
        offset = 0
        if self._match_keyword("LIMIT"):
            limit = self._expect_integer()
            if self._match_keyword("OFFSET"):
                offset = self._expect_integer()
        return ast.Select(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_identifier()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return ast.TableRef(name, alias)

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._expect_identifier()]
        while self._match_punct(","):
            columns.append(self._expect_identifier())
        self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows = [self._parse_value_tuple()]
        while self._match_punct(","):
            rows.append(self._parse_value_tuple())
        return ast.Insert(table, tuple(columns), tuple(rows))

    def _parse_value_tuple(self) -> tuple[ast.Expr, ...]:
        self._expect_punct("(")
        values = [self._parse_expr()]
        while self._match_punct(","):
            values.append(self._parse_expr())
        self._expect_punct(")")
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._match_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_identifier()
        if self._match_operator("=") is None:
            raise SQLError(f"expected '=' in assignment near position {self._peek().position}")
        return column, self._parse_expr()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._match_keyword("TABLE"):
            return self._parse_create_table()
        if self._match_keyword("INDEX"):
            return self._parse_create_index()
        raise SQLError("expected TABLE or INDEX after CREATE")

    def _parse_create_table(self) -> ast.CreateTable:
        table = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._parse_column_def()]
        while self._match_punct(","):
            columns.append(self._parse_column_def())
        self._expect_punct(")")
        return ast.CreateTable(table, tuple(columns))

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            type_name = self._expect_identifier()
        elif token.is_keyword():  # pragma: no cover - defensive
            type_name = self._advance().value
        else:
            raise SQLError(f"expected type name at position {token.position}")
        primary_key = False
        not_null = False
        while True:
            if self._match_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
            elif self._match_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            else:
                break
        return ast.ColumnDef(name, type_name, primary_key, not_null)

    def _parse_create_index(self) -> ast.CreateIndex:
        name = self._expect_identifier()
        self._expect_keyword("ON")
        table = self._expect_identifier()
        self._expect_punct("(")
        column = self._expect_identifier()
        self._expect_punct(")")
        kind = "hash"
        if self._match_keyword("USING"):
            kind = self._expect_identifier().lower()
        return ast.CreateIndex(name, table, column, kind)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = ast.Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = ast.Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._peek().is_keyword("NOT") and self._tokens[self._pos + 1].is_keyword("EXISTS"):
            self._advance()
            self._advance()
            return self._parse_exists(negated=True)
        if self._match_keyword("NOT"):
            return ast.Unary("NOT", self._parse_not())
        if self._match_keyword("EXISTS"):
            return self._parse_exists(negated=False)
        return self._parse_comparison()

    def _parse_exists(self, negated: bool) -> ast.Expr:
        self._expect_punct("(")
        select = self._parse_select()
        self._expect_punct(")")
        return ast.Exists(select, negated)

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._match_operator(*_COMPARISONS)
        if token is not None:
            op = "<>" if token.value == "!=" else token.value
            return ast.Binary(op, left, self._parse_additive())
        negated = False
        if self._peek().is_keyword("NOT"):
            following = self._tokens[self._pos + 1]
            if following.is_keyword("IN", "LIKE", "BETWEEN"):
                self._advance()
                negated = True
        if self._match_keyword("IN"):
            self._expect_punct("(")
            if self._peek().is_keyword("SELECT"):
                select = self._parse_select()
                self._expect_punct(")")
                return ast.InSubquery(left, select, negated)
            items = [self._parse_expr()]
            while self._match_punct(","):
                items.append(self._parse_expr())
            self._expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if self._match_keyword("LIKE"):
            comparison: ast.Expr = ast.Binary("LIKE", left, self._parse_additive())
            return ast.Unary("NOT", comparison) if negated else comparison
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._match_keyword("IS"):
            is_negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_negated)
        if negated:  # pragma: no cover - grammar prevents this
            raise SQLError("dangling NOT")
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._match_operator("+", "-", "||")
            if token is None:
                return left
            left = ast.Binary(token.value, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._match_operator("*", "/", "%")
            if token is None:
                return left
            left = ast.Binary(token.value, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expr:
        if self._match_operator("-") is not None:
            return ast.Unary("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return ast.Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAMETER:
            self._advance()
            return ast.Parameter(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.Star()
        if self._match_punct("("):
            if self._peek().is_keyword("SELECT"):
                select = self._parse_select()
                self._expect_punct(")")
                return ast.Subquery(select)
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD and token.value in NON_RESERVED
        ):
            return self._parse_identifier_expr()
        raise SQLError(f"unexpected token {token.value!r} at position {token.position}")

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._match_keyword("WHEN"):
            condition = self._parse_expr()
            self._expect_keyword("THEN")
            result = self._parse_expr()
            whens.append((condition, result))
        if not whens:
            raise SQLError("CASE requires at least one WHEN clause")
        default = self._parse_expr() if self._match_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.CaseWhen(tuple(whens), default)

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self._expect_identifier()
        if self._match_punct("("):  # function call
            return self._finish_function(name)
        if self._match_punct("."):
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value == "*":
                self._advance()
                return ast.Star(table=name)
            column = self._expect_identifier()
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _finish_function(self, name: str) -> ast.Expr:
        upper = name.upper()
        distinct = self._match_keyword("DISTINCT")
        args: list[ast.Expr] = []
        if not self._match_punct(")"):
            args.append(self._parse_expr())
            while self._match_punct(","):
                args.append(self._parse_expr())
            self._expect_punct(")")
        return ast.FunctionCall(upper, tuple(args), distinct)


@lru_cache(maxsize=512)
def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement into an AST.

    Statements are frozen, so one text parses once and every caller shares
    the tree — which is also what makes its nodes good cache keys for the
    executor's ``compile_expr``."""
    return Parser(sql).parse_statement()
