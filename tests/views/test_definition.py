"""CREATE MATERIALIZED VIEW parsing and analysis."""

from __future__ import annotations

import pytest

from repro import PiqlDatabase
from repro.errors import ParseError, SchemaError
from repro.kvstore.cluster import ClusterConfig
from repro.sql import ast
from repro.sql.parser import parse
from repro.views.definition import analyze_view

DDL = """
CREATE TABLE item (
    I_ID INT, I_SUBJECT VARCHAR(20), I_COST FLOAT,
    PRIMARY KEY (I_ID)
);
CREATE TABLE order_line (
    OL_O_ID INT, OL_ID INT, OL_I_ID INT, OL_QTY INT,
    PRIMARY KEY (OL_O_ID, OL_ID),
    FOREIGN KEY (OL_I_ID) REFERENCES item (I_ID),
    CARDINALITY LIMIT 100 (OL_O_ID)
)
"""

BEST_SELLERS_VIEW = """
CREATE MATERIALIZED VIEW best_sellers AS
SELECT i.I_SUBJECT, ol.OL_I_ID, SUM(ol.OL_QTY) AS total_sold
FROM order_line ol JOIN item i
WHERE i.I_ID = ol.OL_I_ID
GROUP BY i.I_SUBJECT, ol.OL_I_ID
ORDER BY total_sold DESC LIMIT 10
"""


@pytest.fixture
def db() -> PiqlDatabase:
    database = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=5))
    database.execute_ddl(DDL)
    return database


class TestParsing:
    def test_parse_create_materialized_view(self):
        statement = parse(BEST_SELLERS_VIEW)
        assert isinstance(statement, ast.CreateMaterializedViewStatement)
        assert statement.name == "best_sellers"
        assert statement.select.group_by
        assert statement.select.limit.count == 10

    def test_view_definitions_must_be_parameter_free(self):
        with pytest.raises(ParseError, match="parameter-free"):
            parse(
                "CREATE MATERIALIZED VIEW v AS "
                "SELECT owner, COUNT(*) AS n FROM thoughts "
                "WHERE owner = <uname> GROUP BY owner"
            )

    def test_body_must_be_select(self):
        with pytest.raises(ParseError):
            parse("CREATE MATERIALIZED VIEW v AS DELETE FROM x WHERE a = 1")


class TestAnalysis:
    def test_backing_table_and_order_index(self, db):
        view = analyze_view(parse(BEST_SELLERS_VIEW), db.catalog)
        assert view.driving_table == "order_line"
        assert [d.table for d in view.dimensions] == ["item"]
        table = view.backing_table
        assert table.primary_key == ("I_SUBJECT", "OL_I_ID")
        assert table.column_names() == ["I_SUBJECT", "OL_I_ID", "total_sold"]
        assert table.backing_view == "best_sellers"
        assert view.order is not None
        assert (view.order.aggregate, view.order.ascending, view.order.limit) \
            == ("total_sold", False, 10)
        assert view.partition_column_names == ("I_SUBJECT",)
        assert view.entity_column_names == ("OL_I_ID",)
        assert [c.name for c in view.order_index.columns] == [
            "I_SUBJECT", "total_sold", "OL_I_ID",
        ]

    def test_counter_view_has_no_order_index(self, db):
        view = analyze_view(
            parse(
                "CREATE MATERIALIZED VIEW line_counts AS "
                "SELECT OL_I_ID, COUNT(*) AS n FROM order_line GROUP BY OL_I_ID"
            ),
            db.catalog,
        )
        assert view.order is None
        assert view.order_index is None
        assert view.dimensions == []

    def test_requires_group_by(self, db):
        with pytest.raises(SchemaError, match="GROUP BY"):
            analyze_view(
                parse(
                    "CREATE MATERIALIZED VIEW v AS "
                    "SELECT COUNT(*) AS n FROM order_line"
                ),
                db.catalog,
            )

    def test_requires_aggregates(self, db):
        with pytest.raises(Exception):
            analyze_view(
                parse(
                    "CREATE MATERIALIZED VIEW v AS "
                    "SELECT OL_I_ID FROM order_line GROUP BY OL_I_ID"
                ),
                db.catalog,
            )

    def test_limit_requires_aggregate_order(self, db):
        with pytest.raises(SchemaError, match="ORDER BY"):
            analyze_view(
                parse(
                    "CREATE MATERIALIZED VIEW v AS "
                    "SELECT OL_I_ID, COUNT(*) AS n FROM order_line "
                    "GROUP BY OL_I_ID LIMIT 5"
                ),
                db.catalog,
            )

    def test_dimension_must_be_joined_on_primary_key(self, db):
        # Joining item on a non-key column leaves no valid driving relation.
        with pytest.raises(SchemaError, match="drive maintenance"):
            analyze_view(
                parse(
                    "CREATE MATERIALIZED VIEW v AS "
                    "SELECT i.I_SUBJECT, COUNT(*) AS n "
                    "FROM order_line ol JOIN item i "
                    "WHERE i.I_COST = ol.OL_QTY "
                    "GROUP BY i.I_SUBJECT"
                ),
                db.catalog,
            )

    def test_name_clash_rejected(self, db):
        db.create_materialized_view(BEST_SELLERS_VIEW)
        with pytest.raises(SchemaError, match="already in use"):
            db.create_materialized_view(BEST_SELLERS_VIEW)

    def test_ddl_roundtrip_through_execute_ddl(self, db):
        created = db.execute_ddl(BEST_SELLERS_VIEW)
        assert created == ["best_sellers"]
        assert db.catalog.has_view("best_sellers")
        assert db.catalog.has_table("best_sellers")
        # The catalog version bump invalidates prepared-query caches.
        assert [view.name for view in db.catalog.views()] == ["best_sellers"]
