"""Recursive-descent parser for the PIQL dialect.

Supported statements:

* ``SELECT`` with equi-joins (``FROM a, b`` + join predicates in ``WHERE``,
  or explicit ``JOIN ... ON``), conjunctive ``WHERE``, ``GROUP BY``,
  ``ORDER BY``, ``LIMIT`` and PIQL's ``PAGINATE``;
* ``CREATE TABLE`` with ``PRIMARY KEY``, ``FOREIGN KEY ... REFERENCES`` and
  PIQL's ``CARDINALITY LIMIT n (columns)``;
* ``CREATE [UNIQUE] INDEX ... ON table (col | token(col), ...)``;
* ``INSERT INTO ... VALUES``.

``DELETE`` and ``UPDATE`` stay reserved words but are not statements:
rows are deleted and replaced through ``PiqlDatabase.delete`` /
``update``, so either raises :class:`~repro.errors.ParseError` here.

Query parameters may be written ``[1: name]``, ``[2: name(50)]`` (the
parenthesised number declares the maximum cardinality of a list-valued
parameter), or ``<name>``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..errors import ParseError
from ..schema.ddl import CardinalityLimit, Column, ForeignKey, Table
from ..schema.types import type_from_name
from . import ast
from .lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_COMPARISON_OPS = {"=", "<", "<=", ">", ">=", "<>", "!="}


class Parser:
    """Parses a single PIQL statement from source text."""

    def __init__(self, text: str):
        self.tokens: List[Token] = tokenize(text)
        self.position = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.kind != "EOF":
            self.position += 1
        return token

    def _check_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value in words

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._check_keyword(*words):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word}, found {token.value!r}", token.position)
        return self._advance()

    def _accept_op(self, op: str) -> Optional[Token]:
        token = self._peek()
        if token.kind == "OP" and token.value == op:
            return self._advance()
        return None

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if token.kind != "OP" or token.value != op:
            raise ParseError(f"expected {op!r}, found {token.value!r}", token.position)
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        # Allow non-reserved keywords (COUNT, KEY, ...) to be used as identifiers
        # in column positions; real SQL dialects do the same.
        if token.kind in ("IDENT",) or (
            token.kind == "KEYWORD" and token.value in _AGGREGATES | {"KEY", "TOKEN"}
        ):
            self._advance()
            return token.value
        raise ParseError(f"expected identifier, found {token.value!r}", token.position)

    def _expect_number(self) -> Union[int, float]:
        token = self._peek()
        if token.kind != "NUMBER":
            raise ParseError(f"expected number, found {token.value!r}", token.position)
        self._advance()
        return float(token.value) if "." in token.value else int(token.value)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        """Parse one statement and require it to consume all input."""
        statement = self._parse_statement()
        token = self._peek()
        if token.kind != "EOF":
            raise ParseError(f"unexpected trailing input: {token.value!r}", token.position)
        return statement

    def _parse_statement(self) -> ast.Statement:
        if self._check_keyword("SELECT"):
            return self._parse_select()
        if self._check_keyword("CREATE"):
            return self._parse_create()
        if self._check_keyword("INSERT"):
            return self._parse_insert()
        token = self._peek()
        raise ParseError(f"unsupported statement: {token.value!r}", token.position)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        where: List[ast.Predicate] = []
        while True:
            if self._accept_op(","):
                tables.append(self._parse_table_ref())
                continue
            if self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
                tables.append(self._parse_table_ref())
                if self._accept_keyword("ON"):
                    where.extend(self._parse_predicates())
                continue
            if self._accept_keyword("JOIN"):
                tables.append(self._parse_table_ref())
                if self._accept_keyword("ON"):
                    where.extend(self._parse_predicates())
                continue
            break

        if self._accept_keyword("WHERE"):
            where.extend(self._parse_predicates())

        group_by: List[ast.ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_column_ref())
            while self._accept_op(","):
                group_by.append(self._parse_column_ref())

        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_op(","):
                order_by.append(self._parse_order_item())

        limit: Optional[ast.LimitClause] = None
        if self._accept_keyword("LIMIT"):
            limit = ast.LimitClause(self._parse_limit_count(), paginate=False)
        elif self._accept_keyword("PAGINATE"):
            limit = ast.LimitClause(self._parse_limit_count(), paginate=True)

        return ast.SelectStatement(
            select_items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
        )

    def _parse_limit_count(self) -> Union[int, ast.Parameter]:
        token = self._peek()
        if token.kind == "NUMBER":
            value = self._expect_number()
            if not isinstance(value, int):
                raise ParseError("LIMIT/PAGINATE requires an integer", token.position)
            return value
        if token.kind == "OP" and token.value == "[":
            return self._parse_bracket_parameter()
        if token.kind == "NAMED_PARAM":
            self._advance()
            return ast.Parameter(name=token.value)
        raise ParseError(
            f"expected LIMIT count, found {token.value!r}", token.position
        )

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.kind == "OP" and token.value == "*":
            self._advance()
            return ast.Star()
        if token.kind == "KEYWORD" and token.value in _AGGREGATES:
            # Could still be a plain column named e.g. "count" — aggregates
            # are recognised by the following '('.
            if self._peek(1).kind == "OP" and self._peek(1).value == "(":
                return self._parse_aggregate()
        ref = self._parse_column_ref(allow_star=True)
        if isinstance(ref, ast.Star):
            return ref
        if self._accept_keyword("AS"):
            # Column aliases do not affect planning; accept and discard them.
            self._expect_ident()
        return ref

    def _parse_aggregate(self) -> ast.AggregateCall:
        function = self._advance().value
        self._expect_op("(")
        argument: Optional[ast.ColumnRef] = None
        if self._accept_op("*"):
            if function != "COUNT":
                raise ParseError(f"{function}(*) is not supported", self._peek().position)
        else:
            argument = self._parse_column_ref()
        self._expect_op(")")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        return ast.AggregateCall(function=function, argument=argument, alias=alias)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_ident()
        alias = None
        token = self._peek()
        if token.kind == "IDENT":
            alias = self._advance().value
        elif self._accept_keyword("AS"):
            alias = self._expect_ident()
        return ast.TableRef(name=name, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        column = self._parse_column_ref()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        elif self._accept_keyword("ASC"):
            ascending = True
        return ast.OrderItem(column=column, ascending=ascending)

    def _parse_column_ref(self, allow_star: bool = False):
        name = self._expect_ident()
        if self._accept_op("."):
            token = self._peek()
            if allow_star and token.kind == "OP" and token.value == "*":
                self._advance()
                return ast.Star(table=name)
            column = self._expect_ident()
            return ast.ColumnRef(column=column, table=name)
        return ast.ColumnRef(column=name)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _parse_predicates(self) -> List[ast.Predicate]:
        predicates = [self._parse_predicate()]
        while self._accept_keyword("AND"):
            predicates.append(self._parse_predicate())
        if self._check_keyword("OR"):
            token = self._peek()
            raise ParseError(
                "OR is not supported by PIQL; rewrite as separate queries",
                token.position,
            )
        return predicates

    def _parse_predicate(self) -> ast.Predicate:
        column = self._parse_column_ref()
        if self._accept_keyword("LIKE"):
            return ast.LikePredicate(column=column, pattern=self._parse_value())
        if self._accept_keyword("CONTAINS"):
            return ast.ContainsPredicate(column=column, token=self._parse_value())
        if self._accept_keyword("IN"):
            return ast.InPredicate(column=column, values=self._parse_in_values())
        token = self._peek()
        if token.kind == "OP" and token.value in _COMPARISON_OPS:
            self._advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.Comparison(left=column, op=op, right=self._parse_value())
        raise ParseError(
            f"expected a predicate operator, found {token.value!r}", token.position
        )

    def _parse_in_values(self) -> Union[ast.Parameter, Tuple[ast.Literal, ...]]:
        token = self._peek()
        if token.kind == "OP" and token.value == "[":
            return self._parse_bracket_parameter()
        if token.kind == "NAMED_PARAM":
            self._advance()
            return ast.Parameter(name=token.value)
        self._expect_op("(")
        literals = [self._parse_literal()]
        while self._accept_op(","):
            literals.append(self._parse_literal())
        self._expect_op(")")
        return tuple(literals)

    def _parse_value(self) -> ast.Value:
        token = self._peek()
        if token.kind == "OP" and token.value == "[":
            return self._parse_bracket_parameter()
        if token.kind == "NAMED_PARAM":
            self._advance()
            return ast.Parameter(name=token.value)
        if token.kind in ("NUMBER", "STRING") or token.value in ("TRUE", "FALSE", "NULL"):
            return self._parse_literal()
        if token.kind == "IDENT" or (
            token.kind == "KEYWORD" and token.value in _AGGREGATES | {"KEY"}
        ):
            return self._parse_column_ref()
        raise ParseError(f"expected a value, found {token.value!r}", token.position)

    def _parse_literal(self) -> ast.Literal:
        token = self._peek()
        if token.kind == "NUMBER":
            return ast.Literal(self._expect_number())
        if token.kind == "STRING":
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        raise ParseError(f"expected a literal, found {token.value!r}", token.position)

    def _parse_bracket_parameter(self) -> ast.Parameter:
        self._expect_op("[")
        index = None
        token = self._peek()
        if token.kind == "NUMBER":
            index = int(self._expect_number())
            self._expect_op(":")
        name = self._expect_ident()
        max_cardinality = None
        if self._accept_op("("):
            max_cardinality = int(self._expect_number())
            self._expect_op(")")
        self._expect_op("]")
        return ast.Parameter(name=name, index=index, max_cardinality=max_cardinality)

    # ------------------------------------------------------------------
    # CREATE TABLE / CREATE INDEX
    # ------------------------------------------------------------------
    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._parse_create_table()
        if self._accept_keyword("MATERIALIZED"):
            self._expect_keyword("VIEW")
            return self._parse_create_materialized_view()
        unique = bool(self._accept_keyword("UNIQUE"))
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique)
        token = self._peek()
        raise ParseError(f"unsupported CREATE statement: {token.value!r}", token.position)

    def _parse_create_materialized_view(self) -> ast.CreateMaterializedViewStatement:
        name = self._expect_ident()
        self._expect_keyword("AS")
        token = self._peek()
        if not self._check_keyword("SELECT"):
            raise ParseError(
                f"materialized view body must be a SELECT, found {token.value!r}",
                token.position,
            )
        select = self._parse_select()
        for parameter in select.parameters():
            raise ParseError(
                f"materialized view definitions must be parameter-free; "
                f"found parameter <{parameter.name}>"
            )
        return ast.CreateMaterializedViewStatement(name=name, select=select)

    def _parse_create_table(self) -> ast.CreateTableStatement:
        name = self._expect_ident()
        self._expect_op("(")
        columns: List[Column] = []
        primary_key: Tuple[str, ...] = ()
        foreign_keys: List[ForeignKey] = []
        cardinality_limits: List[CardinalityLimit] = []

        while True:
            if self._check_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                primary_key = tuple(self._parse_paren_ident_list())
            elif self._check_keyword("FOREIGN"):
                self._advance()
                self._expect_keyword("KEY")
                fk_columns = tuple(self._parse_paren_ident_list())
                self._expect_keyword("REFERENCES")
                ref_table = self._expect_ident()
                ref_columns = tuple(self._parse_paren_ident_list())
                foreign_keys.append(ForeignKey(fk_columns, ref_table, ref_columns))
            elif self._check_keyword("CARDINALITY"):
                self._advance()
                self._expect_keyword("LIMIT")
                limit = int(self._expect_number())
                limit_columns = tuple(self._parse_paren_ident_list())
                cardinality_limits.append(CardinalityLimit(limit, limit_columns))
            else:
                columns.append(self._parse_column_definition())
            if self._accept_op(","):
                continue
            break
        self._expect_op(")")

        if not primary_key:
            token = self._peek()
            raise ParseError(
                f"table {name!r} must declare a PRIMARY KEY", token.position
            )
        table = Table(
            name=name,
            columns=columns,
            primary_key=primary_key,
            foreign_keys=foreign_keys,
            cardinality_limits=cardinality_limits,
        )
        return ast.CreateTableStatement(table=table)

    def _parse_column_definition(self) -> Column:
        name = self._expect_ident()
        type_token = self._peek()
        if type_token.kind not in ("IDENT", "KEYWORD"):
            raise ParseError(
                f"expected a column type, found {type_token.value!r}",
                type_token.position,
            )
        self._advance()
        argument = None
        if self._accept_op("("):
            argument = int(self._expect_number())
            self._expect_op(")")
        nullable = True
        if self._accept_keyword("NOT"):
            self._expect_keyword("NULL")
            nullable = False
        return Column(name=name, type=type_from_name(type_token.value, argument), nullable=nullable)

    def _parse_paren_ident_list(self) -> List[str]:
        self._expect_op("(")
        names = [self._expect_ident()]
        while self._accept_op(","):
            names.append(self._expect_ident())
        self._expect_op(")")
        return names

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        name = self._expect_ident()
        self._expect_keyword("ON")
        table = self._expect_ident()
        self._expect_op("(")
        columns: List[Tuple[str, bool]] = [self._parse_index_column()]
        while self._accept_op(","):
            columns.append(self._parse_index_column())
        self._expect_op(")")
        return ast.CreateIndexStatement(
            name=name, table=table, columns=tuple(columns), unique=unique
        )

    def _parse_index_column(self) -> Tuple[str, bool]:
        if self._accept_keyword("TOKEN"):
            self._expect_op("(")
            column = self._expect_ident()
            self._expect_op(")")
            return column, True
        return self._expect_ident(), False

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------
    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        columns = tuple(self._parse_paren_ident_list())
        self._expect_keyword("VALUES")
        self._expect_op("(")
        values: List[object] = [self._parse_literal().value]
        while self._accept_op(","):
            values.append(self._parse_literal().value)
        self._expect_op(")")
        if len(columns) != len(values):
            raise ParseError(
                f"INSERT into {table!r} has {len(columns)} columns but "
                f"{len(values)} values"
            )
        return ast.InsertStatement(table=table, columns=columns, values=tuple(values))


def parse(text: str) -> ast.Statement:
    """Parse a single PIQL statement."""
    return Parser(text).parse_statement()


def parse_select(text: str) -> ast.SelectStatement:
    """Parse text that must be a SELECT statement."""
    statement = parse(text)
    if not isinstance(statement, ast.SelectStatement):
        raise ParseError("expected a SELECT statement")
    return statement
