"""Unit tests for schema objects: types, tables, constraints, catalog."""

import pytest

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError
from repro.schema import (
    BooleanType,
    CardinalityLimit,
    Catalog,
    Column,
    ForeignKey,
    IndexColumn,
    IndexDefinition,
    IntType,
    Table,
    TimestampType,
    VarcharType,
    type_from_name,
)


def make_subscriptions() -> Table:
    return Table(
        name="subscriptions",
        columns=[
            Column("owner", VarcharType(32)),
            Column("target", VarcharType(32)),
            Column("approved", BooleanType()),
        ],
        primary_key=("owner", "target"),
        foreign_keys=[ForeignKey(("target",), "users", ("username",))],
        cardinality_limits=[CardinalityLimit(100, ("owner",))],
    )


class TestColumnTypes:
    def test_int_validation(self):
        assert IntType().validate(5) == 5
        assert IntType().validate(5.0) == 5
        with pytest.raises(SchemaError):
            IntType().validate("x")
        with pytest.raises(SchemaError):
            IntType().validate(True)

    def test_varchar_validation(self):
        assert VarcharType(5).validate("abc") == "abc"
        with pytest.raises(SchemaError):
            VarcharType(3).validate("toolong")
        with pytest.raises(SchemaError):
            VarcharType(3).validate(5)

    def test_boolean_validation(self):
        assert BooleanType().validate(True) is True
        assert BooleanType().validate(0) is False
        with pytest.raises(SchemaError):
            BooleanType().validate("yes")

    def test_timestamp_validation(self):
        assert TimestampType().validate(1_300_000_000) == 1_300_000_000
        with pytest.raises(SchemaError):
            TimestampType().validate("2011-01-01")

    def test_type_from_name(self):
        assert isinstance(type_from_name("INT"), IntType)
        assert isinstance(type_from_name("varchar", 10), VarcharType)
        assert type_from_name("VARCHAR", 10).max_length == 10
        assert isinstance(type_from_name("BOOLEAN"), BooleanType)
        with pytest.raises(SchemaError):
            type_from_name("GEOMETRY")

    def test_estimated_sizes(self):
        assert IntType().estimated_size() == 8
        assert VarcharType(100).estimated_size() == 50
        assert BooleanType().estimated_size() == 1


class TestTable:
    def test_requires_primary_key(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=[Column("a", IntType())], primary_key=())

    def test_primary_key_must_exist(self):
        with pytest.raises(UnknownColumnError):
            Table(name="t", columns=[Column("a", IntType())], primary_key=("b",))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(
                name="t",
                columns=[Column("a", IntType()), Column("a", IntType())],
                primary_key=("a",),
            )

    def test_cardinality_limit_validation(self):
        with pytest.raises(SchemaError):
            CardinalityLimit(0, ("a",))
        with pytest.raises(SchemaError):
            CardinalityLimit(10, ())

    def test_foreign_key_column_mismatch(self):
        with pytest.raises(SchemaError):
            ForeignKey(("a", "b"), "other", ("x",))

    def test_covers_primary_key(self):
        table = make_subscriptions()
        assert table.covers_primary_key({"owner", "target", "approved"})
        assert not table.covers_primary_key({"owner"})

    def test_matching_cardinality(self):
        table = make_subscriptions()
        assert table.matching_cardinality({"owner", "target"}) == 1
        assert table.matching_cardinality({"owner"}) == 100
        assert table.matching_cardinality({"owner", "approved"}) == 100
        assert table.matching_cardinality({"approved"}) is None

    def test_tightest_cardinality_limit_wins(self):
        table = Table(
            name="t",
            columns=[Column("a", IntType()), Column("b", IntType())],
            primary_key=("a", "b"),
            cardinality_limits=[
                CardinalityLimit(500, ("a",)),
                CardinalityLimit(50, ("a",)),
            ],
        )
        assert table.matching_cardinality({"a"}) == 50

    def test_validate_row(self):
        table = make_subscriptions()
        row = table.validate_row({"owner": "a", "target": "b", "approved": True})
        assert row == {"owner": "a", "target": "b", "approved": True}

    def test_validate_row_missing_pk(self):
        table = make_subscriptions()
        with pytest.raises(SchemaError):
            table.validate_row({"owner": "a", "approved": True})

    def test_validate_row_unknown_column(self):
        table = make_subscriptions()
        with pytest.raises(UnknownColumnError):
            table.validate_row({"owner": "a", "target": "b", "bogus": 1})

    def test_validate_row_fills_nullable(self):
        table = make_subscriptions()
        row = table.validate_row({"owner": "a", "target": "b"})
        assert row["approved"] is None

    def test_estimated_row_bytes(self):
        assert make_subscriptions().estimated_row_bytes() == 16 + 16 + 1


class TestCatalog:
    def test_add_and_get_table_case_insensitive(self):
        catalog = Catalog()
        catalog.add_table(make_subscriptions())
        assert catalog.table("SUBSCRIPTIONS").name == "subscriptions"
        assert catalog.has_table("Subscriptions")

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(make_subscriptions())
        with pytest.raises(SchemaError):
            catalog.add_table(make_subscriptions())

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            Catalog().table("nope")

    def test_add_index_and_find(self):
        catalog = Catalog()
        catalog.add_table(make_subscriptions())
        index = IndexDefinition(
            name="idx_target",
            table="subscriptions",
            columns=(IndexColumn("target"), IndexColumn("owner")),
        )
        catalog.add_index(index)
        assert catalog.has_index("IDX_TARGET")
        found = catalog.find_index("subscriptions", [IndexColumn("target")])
        assert found is index
        assert catalog.find_index("subscriptions", [IndexColumn("approved")]) is None

    def test_add_index_unknown_column(self):
        catalog = Catalog()
        catalog.add_table(make_subscriptions())
        with pytest.raises(SchemaError):
            catalog.add_index(
                IndexDefinition("bad", "subscriptions", (IndexColumn("missing"),))
            )

    def test_add_identical_index_is_noop(self):
        catalog = Catalog()
        catalog.add_table(make_subscriptions())
        index = IndexDefinition(
            "idx", "subscriptions", (IndexColumn("target"), IndexColumn("owner"))
        )
        assert catalog.add_index(index) is catalog.add_index(index)

    def test_index_name_generation(self):
        name = Catalog.index_name(
            "item", [IndexColumn("I_TITLE", tokenized=True), IndexColumn("I_ID")]
        )
        assert name == "idx_item__tok_i_title__i_id"

    def test_tokenized_index_column_render(self):
        assert IndexColumn("title", tokenized=True).render() == "token(title)"
        definition = IndexDefinition(
            "x", "item", (IndexColumn("title", True), IndexColumn("id"))
        )
        assert definition.describe() == "item(token(title), id)"
