"""Unit tests for the analyzer (AST -> QuerySpec / logical plan)."""

import pytest

from repro.errors import PlanningError, UnknownColumnError, UnknownTableError
from repro.plans import logical as L
from repro.plans.builder import LogicalPlanBuilder
from repro.plans import physical as P
from repro.plans.printer import plan_to_string
from repro.schema import Catalog
from repro.sql.parser import parse_select
from repro.workloads.scadr.schema import scadr_ddl
from repro.sql.parser import parse
from repro.sql import ast


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    for statement_text in scadr_ddl(100).split(";"):
        statement = parse(statement_text.strip())
        assert isinstance(statement, ast.CreateTableStatement)
        catalog.add_table(statement.table)
    return catalog


@pytest.fixture
def builder(catalog) -> LogicalPlanBuilder:
    return LogicalPlanBuilder(catalog)


class TestSpecBuilding:
    def test_single_relation_equality(self, builder):
        spec = builder.build_spec(
            parse_select("SELECT * FROM users WHERE username = <u>")
        )
        assert [relation.alias for relation in spec.relations] == ["users"]
        equality = spec.relation("users").equalities[0]
        assert equality.column == L.BoundColumn("users", "users", "username")

    def test_join_predicate_classification(self, builder, thoughtstream_sql):
        spec = builder.build_spec(parse_select(thoughtstream_sql))
        assert len(spec.join_predicates) == 1
        join = spec.join_predicates[0]
        assert {join.left.relation, join.right.relation} == {"s", "t"}
        assert spec.relation("s").equalities[0].column.column == "owner"
        # approved = true is an equality with a literal
        columns = {p.column.column for p in spec.relation("s").equalities}
        assert columns == {"owner", "approved"}

    def test_sort_and_stop(self, builder, thoughtstream_sql):
        spec = builder.build_spec(parse_select(thoughtstream_sql))
        assert spec.sort_keys[0][0].column == "timestamp"
        assert spec.sort_keys[0][1] is False
        assert spec.stop.count == 10 and spec.stop.paginate is False

    def test_case_insensitive_column_resolution(self, builder):
        spec = builder.build_spec(
            parse_select("SELECT * FROM users WHERE USERNAME = <u>")
        )
        assert spec.relation("users").equalities[0].column.column == "username"

    def test_unknown_table(self, builder):
        with pytest.raises(UnknownTableError):
            builder.build_spec(parse_select("SELECT * FROM missing WHERE a = 1"))

    def test_unknown_column(self, builder):
        with pytest.raises(UnknownColumnError):
            builder.build_spec(parse_select("SELECT * FROM users WHERE nope = 1"))

    def test_ambiguous_column(self, builder):
        with pytest.raises(PlanningError):
            builder.build_spec(
                parse_select(
                    "SELECT * FROM subscriptions s JOIN thoughts t "
                    "WHERE owner = 'x' AND t.owner = s.target"
                )
            )

    def test_qualified_by_table_name_despite_alias(self, builder):
        spec = builder.build_spec(
            parse_select("SELECT * FROM users u WHERE users.username = <x>")
        )
        assert spec.relation("u").equalities[0].column.relation == "u"

    def test_duplicate_binding_rejected(self, builder):
        with pytest.raises(PlanningError):
            builder.build_spec(parse_select("SELECT * FROM users, users WHERE username = 'a'"))

    def test_non_equi_join_rejected(self, builder):
        with pytest.raises(PlanningError):
            builder.build_spec(
                parse_select(
                    "SELECT * FROM subscriptions s JOIN thoughts t WHERE t.owner > s.target"
                )
            )

    def test_group_by_requires_aggregate(self, builder):
        with pytest.raises(PlanningError):
            builder.build_spec(
                parse_select("SELECT username FROM users WHERE username = 'a' GROUP BY username")
            )

    def test_aggregate_projection_validation(self, builder):
        with pytest.raises(PlanningError):
            builder.build_spec(
                parse_select(
                    "SELECT hometown, COUNT(*) FROM users WHERE username = 'a' GROUP BY created"
                )
            )

    def test_in_predicate(self, builder):
        spec = builder.build_spec(
            parse_select(
                "SELECT * FROM subscriptions WHERE target = <t> AND owner IN [1: friends(50)]"
            )
        )
        in_predicate = spec.relation("subscriptions").in_predicates[0]
        assert in_predicate.max_cardinality() == 50

    def test_like_becomes_token_match(self, builder):
        spec = builder.build_spec(
            parse_select("SELECT * FROM users WHERE hometown LIKE [1: town] LIMIT 5")
        )
        assert spec.relation("users").token_matches[0].column.column == "hometown"


class TestInitialPlan:
    def test_initial_plan_shape(self, builder, thoughtstream_sql):
        spec = builder.build_spec(parse_select(thoughtstream_sql))
        plan = builder.build_initial_plan(spec)
        operators = [op.label() for op in P.walk(plan)]
        assert operators[0].startswith("Project")
        assert any(op.startswith("Stop(10)") for op in operators)
        assert any(op.startswith("Sort") for op in operators)
        assert any(op.startswith("Join") for op in operators)
        assert sum(1 for op in operators if op.startswith("Relation")) == 2

    def test_plan_rendering_is_indented(self, builder):
        spec = builder.build_spec(
            parse_select("SELECT * FROM users WHERE username = <u>")
        )
        text = plan_to_string(builder.build_initial_plan(spec))
        assert "Project" in text.splitlines()[0]
        assert text.splitlines()[-1].startswith("    ")
