"""Unit tests for the PIQL lexer and parser."""

import pytest

from repro.errors import ParseError
from repro.schema.types import BooleanType, IntType, VarcharType
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse, parse_select


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT * FROM users WHERE a = 1")
        kinds = [t.kind for t in tokens]
        assert kinds[:2] == ["KEYWORD", "OP"]
        assert kinds[-1] == "EOF"

    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select From")
        assert tokens[0].value == "SELECT"
        assert tokens[1].value == "FROM"

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].kind == "STRING"
        assert tokens[1].value == "it's"

    def test_named_parameter(self):
        tokens = tokenize("WHERE a = <uname>")
        assert any(t.kind == "NAMED_PARAM" and t.value == "uname" for t in tokens)

    def test_less_than_is_not_a_parameter(self):
        tokens = tokenize("WHERE a < b AND c > d")
        assert not any(t.kind == "NAMED_PARAM" for t in tokens)

    def test_comments_skipped(self):
        tokens = tokenize("SELECT * -- trailing comment\nFROM t")
        assert all(t.kind != "COMMENT" for t in tokens)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @foo")


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse_select("SELECT * FROM users WHERE username = <uname>")
        assert isinstance(stmt, ast.SelectStatement)
        assert stmt.tables == [ast.TableRef("users", None)]
        assert isinstance(stmt.select_items[0], ast.Star)
        assert isinstance(stmt.where[0], ast.Comparison)

    def test_column_list_and_aliases(self):
        stmt = parse_select(
            "SELECT i.I_TITLE, A_FNAME FROM item i JOIN author a "
            "WHERE i.I_A_ID = a.A_ID"
        )
        assert stmt.tables == [ast.TableRef("item", "i"), ast.TableRef("author", "a")]
        first = stmt.select_items[0]
        assert isinstance(first, ast.ColumnRef) and first.table == "i"

    def test_qualified_star(self):
        stmt = parse_select("SELECT thoughts.* FROM thoughts WHERE owner = 'a' LIMIT 5")
        assert stmt.select_items[0] == ast.Star(table="thoughts")

    def test_order_by_and_limit(self):
        stmt = parse_select(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 10"
        )
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == ast.LimitClause(10, paginate=False)

    def test_paginate_clause(self):
        stmt = parse_select("SELECT * FROM thoughts WHERE owner = <u> PAGINATE 20")
        assert stmt.limit.paginate is True
        assert stmt.limit.count == 20

    def test_bracket_parameter_with_index(self):
        stmt = parse_select("SELECT * FROM item WHERE I_TITLE LIKE [1: titleWord]")
        predicate = stmt.where[0]
        assert isinstance(predicate, ast.LikePredicate)
        assert predicate.pattern == ast.Parameter("titleWord", index=1)

    def test_bracket_parameter_with_cardinality(self):
        stmt = parse_select(
            "SELECT * FROM subscriptions WHERE target = <t> AND owner IN [2: friends(50)]"
        )
        in_predicate = stmt.where[1]
        assert isinstance(in_predicate, ast.InPredicate)
        assert in_predicate.values.max_cardinality == 50

    def test_in_with_literal_list(self):
        stmt = parse_select("SELECT * FROM users WHERE username IN ('a', 'b')")
        values = stmt.where[0].values
        assert [v.value for v in values] == ["a", "b"]

    def test_contains_predicate(self):
        stmt = parse_select("SELECT * FROM item WHERE I_DESC CONTAINS [1: word]")
        assert isinstance(stmt.where[0], ast.ContainsPredicate)

    def test_inequality_and_boolean_literal(self):
        stmt = parse_select(
            "SELECT * FROM subscriptions WHERE approved = true AND owner >= 'a'"
        )
        assert stmt.where[0].right == ast.Literal(True)
        assert stmt.where[1].op == ">="

    def test_join_with_on_clause(self):
        stmt = parse_select(
            "SELECT * FROM item i JOIN author a ON i.I_A_ID = a.A_ID WHERE i.I_ID = 5"
        )
        assert len(stmt.tables) == 2
        assert len(stmt.where) == 2

    def test_aggregate_count_star(self):
        stmt = parse_select("SELECT COUNT(*) FROM thoughts WHERE owner = <u> LIMIT 10")
        agg = stmt.select_items[0]
        assert isinstance(agg, ast.AggregateCall)
        assert agg.function == "COUNT" and agg.argument is None

    def test_aggregate_with_group_by(self):
        stmt = parse_select(
            "SELECT owner, COUNT(*) AS n FROM thoughts WHERE owner = <u> "
            "GROUP BY owner LIMIT 10"
        )
        assert stmt.group_by == [ast.ColumnRef("owner")]
        assert stmt.select_items[1].alias == "n"

    def test_parameters_collection(self):
        stmt = parse_select(
            "SELECT * FROM t1 WHERE a = <x> AND b LIKE [1: y] AND c IN [2: z(5)] LIMIT [3: k]"
        )
        names = [p.name for p in stmt.parameters()]
        assert names == ["x", "y", "z", "k"]

    def test_or_is_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM t WHERE a = 1 OR b = 2")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM t WHERE a = 1 GARBAGE")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT *")

    def test_parse_select_requires_select(self):
        with pytest.raises(ParseError):
            parse_select("INSERT INTO t (a) VALUES (1)")


class TestDdlParsing:
    def test_create_table_with_piql_extensions(self):
        stmt = parse(
            """
            CREATE TABLE Subscriptions (
                ownerUserId INT,
                targetUserId INT,
                approved BOOLEAN,
                note VARCHAR(255) NOT NULL,
                PRIMARY KEY (ownerUserId, targetUserId),
                FOREIGN KEY (targetUserId) REFERENCES Users (userId),
                CARDINALITY LIMIT 100 (ownerUserId)
            )
            """
        )
        assert isinstance(stmt, ast.CreateTableStatement)
        table = stmt.table
        assert table.primary_key == ("ownerUserId", "targetUserId")
        assert table.cardinality_limits[0].limit == 100
        assert table.foreign_keys[0].ref_table == "Users"
        assert isinstance(table.column("ownerUserId").type, IntType)
        assert isinstance(table.column("approved").type, BooleanType)
        assert isinstance(table.column("note").type, VarcharType)
        assert table.column("note").nullable is False

    def test_create_table_requires_primary_key(self):
        with pytest.raises(ParseError):
            parse("CREATE TABLE t (a INT)")

    def test_create_index_with_token(self):
        stmt = parse("CREATE INDEX idx_title ON item (token(I_TITLE), I_TITLE, I_ID)")
        assert isinstance(stmt, ast.CreateIndexStatement)
        assert stmt.columns == (("I_TITLE", True), ("I_TITLE", False), ("I_ID", False))

    def test_create_unique_index(self):
        stmt = parse("CREATE UNIQUE INDEX u ON users (username)")
        assert stmt.unique is True

    def test_insert_statement(self):
        stmt = parse("INSERT INTO users (username, created) VALUES ('bob', 5)")
        assert isinstance(stmt, ast.InsertStatement)
        assert stmt.columns == ("username", "created")
        assert stmt.values == ("bob", 5)

    def test_insert_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO users (a, b) VALUES (1)")

    @pytest.mark.parametrize("text", [
        "UPDATE users SET a = 1",
        "DELETE FROM users WHERE username = 'bob'",
    ])
    def test_unsupported_statement(self, text):
        with pytest.raises(ParseError):
            parse(text)
