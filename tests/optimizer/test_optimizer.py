"""Tests for the scale-independent optimizer (Phases I and II)."""

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.errors import NotScaleIndependentError
from repro.plans import physical as P
from repro.plans.bounds import compute_bound
from repro.workloads.scadr.schema import scadr_ddl
from repro.workloads.tpcw.queries import QUERIES as TPCW_QUERIES
from repro.workloads.tpcw.schema import TPCW_DDL

#: The operators that send requests to the key/value store.
REMOTE = (
    P.PhysicalIndexScan, P.PhysicalIndexLookup, P.PhysicalIndexFKJoin,
    P.PhysicalSortedIndexJoin,
)


def remote_operators(plan):
    return [op for op in P.walk(plan) if isinstance(op, REMOTE)]


def plan_operators(plan):
    """Operator labels in pre-order, parents before children."""
    return [op.label() for op in P.walk(plan)]


@pytest.fixture
def scadr_optimizer():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=1))
    db.execute_ddl(scadr_ddl(100))
    return db.optimizer


@pytest.fixture
def tpcw_optimizer():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=1))
    db.execute_ddl(TPCW_DDL)
    return db.optimizer


class TestThoughtstreamPlan:
    """The worked example of Figure 3."""

    def test_logical_plan_contains_datastop_below_approval_filter(
        self, scadr_optimizer, thoughtstream_sql
    ):
        plan = scadr_optimizer.prepared_logical_plan(thoughtstream_sql)
        operators = plan_operators(plan)
        datastop_index = next(
            i for i, op in enumerate(operators) if op.startswith("DataStop")
        )
        approved_index = next(
            i for i, op in enumerate(operators) if "approved" in op
        )
        owner_index = next(
            i for i, op in enumerate(operators) if "s.owner" in op and "Selection" in op
        )
        # Pre-order rendering: parents come before children, so the data-stop
        # sits *below* the approval filter and *above* its causing predicate.
        assert approved_index < datastop_index < owner_index

    def test_physical_plan_matches_figure_3d(self, scadr_optimizer, thoughtstream_sql):
        optimized = scadr_optimizer.optimize(thoughtstream_sql)
        operators = plan_operators(optimized.physical_plan)
        joined = "\n".join(operators)
        assert "SortedIndexJoin(thoughts(primary)" in joined
        # The approval filter only reads the scanned record, so it is pushed
        # below the base-record fetch and evaluated server-side on the scan.
        assert "pushdown=(s.approved = True)" in joined
        assert "IndexScan(subscriptions(primary)" in joined
        assert "limitHint=100" in joined  # MaxSubscriptions
        assert "limitHint=10" in joined   # page size
        # No extra secondary index is required: the data-stop push-down lets
        # the primary index serve the subscriptions scan.
        assert optimized.required_indexes == []

    def test_operation_bound(self, scadr_optimizer, thoughtstream_sql):
        optimized = scadr_optimizer.optimize(thoughtstream_sql)
        bound = compute_bound(optimized.physical_plan)
        # 1 range request for subscriptions + at most 100 per-subscription
        # range requests for thoughts.
        assert bound.max_operations == 101
        assert bound.max_tuples == 10


class TestBoundedPlans:
    def test_primary_key_lookup_is_class_one(self, scadr_optimizer):
        optimized = scadr_optimizer.optimize(
            "SELECT * FROM users WHERE username = <u>"
        )
        assert optimized.operation_bound == 1
        remote = remote_operators(optimized.physical_plan)
        assert isinstance(remote[0], P.PhysicalIndexLookup)

    def test_limit_with_pk_prefix_uses_primary_index(self, scadr_optimizer):
        optimized = scadr_optimizer.optimize(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 10"
        )
        scans = P.find_scans(optimized.physical_plan)
        assert scans[0].index.primary
        assert scans[0].ascending is False
        assert optimized.operation_bound == 1
        assert optimized.required_indexes == []

    def test_cardinality_bounds_join(self, scadr_optimizer):
        optimized = scadr_optimizer.optimize(
            "SELECT u.* FROM subscriptions s JOIN users u "
            "WHERE s.owner = <u> AND u.username = s.target"
        )
        remote = remote_operators(optimized.physical_plan)
        assert any(isinstance(op, P.PhysicalIndexFKJoin) for op in remote)
        assert optimized.operation_bound == 101

    def test_in_over_primary_key_bounds_lookups(self, scadr_optimizer):
        optimized = scadr_optimizer.optimize(
            "SELECT * FROM subscriptions WHERE target = <t> AND owner IN [1: friends(50)]"
        )
        remote = remote_operators(optimized.physical_plan)
        assert isinstance(remote[0], P.PhysicalIndexLookup)
        assert optimized.operation_bound == 50

    def test_paginated_query_is_bounded(self, scadr_optimizer):
        optimized = scadr_optimizer.optimize(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp ASC PAGINATE 7"
        )
        assert optimized.is_paginated
        assert optimized.operation_bound == 1


class TestRejectedPlans:
    def test_unbounded_single_relation(self, scadr_optimizer):
        with pytest.raises(NotScaleIndependentError) as excinfo:
            scadr_optimizer.optimize("SELECT * FROM users WHERE hometown = <town>")
        assert "hometown" in " ".join(excinfo.value.candidate_attributes)
        assert excinfo.value.suggestions

    def test_full_table_scan_rejected(self, scadr_optimizer):
        with pytest.raises(NotScaleIndependentError):
            scadr_optimizer.optimize("SELECT * FROM users")

    def test_unbounded_join_rejected_with_suggestion(self, scadr_optimizer):
        # Without the cardinality limit column (owner) being constrained, the
        # join against thoughts cannot be bounded.
        with pytest.raises(NotScaleIndependentError) as excinfo:
            scadr_optimizer.optimize(
                "SELECT t.* FROM users u JOIN thoughts t "
                "WHERE u.hometown = <town> AND t.owner = u.username LIMIT 10"
            )
        assert excinfo.value.relation is not None

    def test_cartesian_product_rejected(self, scadr_optimizer):
        with pytest.raises(NotScaleIndependentError):
            scadr_optimizer.optimize(
                "SELECT * FROM users u1 JOIN thoughts t WHERE u1.username = <a> LIMIT 5"
            )

    def test_offset_style_unbounded_sort_rejected(self, scadr_optimizer):
        # Mixed-direction sorts cannot be satisfied by a single index scan.
        with pytest.raises(NotScaleIndependentError):
            scadr_optimizer.optimize(
                "SELECT * FROM thoughts WHERE owner = <u> "
                "ORDER BY timestamp DESC, text ASC LIMIT 10"
            )


class TestTpcwPlans:
    """Index selection for the TPC-W queries must match Table 1."""

    def _indexes(self, optimizer, sql):
        return [ix.describe() for ix in optimizer.optimize(sql).required_indexes]

    def test_every_tpcw_query_is_bounded(self, tpcw_optimizer):
        for name, sql in TPCW_QUERIES.items():
            optimized = tpcw_optimizer.optimize(sql)
            assert optimized.operation_bound > 0, name

    def test_new_products_index(self, tpcw_optimizer):
        indexes = self._indexes(tpcw_optimizer, TPCW_QUERIES["new_products_wi"])
        assert "item(token(I_SUBJECT), I_PUB_DATE, I_ID)" in indexes

    def test_search_by_title_index(self, tpcw_optimizer):
        indexes = self._indexes(tpcw_optimizer, TPCW_QUERIES["search_by_title_wi"])
        assert "item(token(I_TITLE), I_TITLE, I_A_ID, I_ID)" in indexes or \
            "item(token(I_TITLE), I_TITLE, I_ID)" in indexes

    def test_search_by_author_indexes(self, tpcw_optimizer):
        indexes = self._indexes(tpcw_optimizer, TPCW_QUERIES["search_by_author_wi"])
        assert any(ix.startswith("author(token(A_LNAME)") for ix in indexes)
        assert "item(I_A_ID, I_TITLE, I_ID)" in indexes

    def test_last_order_index(self, tpcw_optimizer):
        indexes = self._indexes(
            tpcw_optimizer, TPCW_QUERIES["order_display_get_last_order"]
        )
        assert "orders(O_C_UNAME, O_DATE_TIME, O_ID)" in indexes

    def test_point_queries_need_no_indexes(self, tpcw_optimizer):
        for name in ("home_wi", "product_detail_wi", "order_display_get_customer",
                     "order_display_get_order_lines", "buy_request_wi"):
            assert self._indexes(tpcw_optimizer, TPCW_QUERIES[name]) == [], name

    def test_fk_join_used_for_product_detail(self, tpcw_optimizer):
        optimized = tpcw_optimizer.optimize(TPCW_QUERIES["product_detail_wi"])
        remote = remote_operators(optimized.physical_plan)
        assert any(isinstance(op, P.PhysicalIndexFKJoin) for op in remote)
        assert optimized.operation_bound == 2


class TestDescribe:
    def test_describe_includes_bounds_and_plans(self, scadr_optimizer, thoughtstream_sql):
        optimized = scadr_optimizer.optimize(thoughtstream_sql)
        text = optimized.describe()
        assert "logical plan" in text
        assert "physical plan" in text
        assert "101 key/value operations" in text
