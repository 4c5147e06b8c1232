"""Tests for the TPC-W and SCADr benchmark workloads."""

import random

import pytest

from repro.workloads.scadr.data import ScadrDataConfig, ScadrDataGenerator
from repro.workloads.tpcw.data import TpcwDataConfig, TpcwDataGenerator
from repro.workloads.tpcw.queries import QUERIES as TPCW_QUERIES
from repro.workloads.tpcw.workload import ORDERING_MIX


class TestScadrGenerator:
    def test_row_counts(self):
        generator = ScadrDataGenerator(
            ScadrDataConfig(users=50, thoughts_per_user=5, subscriptions_per_user=3)
        )
        assert len(list(generator.users())) == 50
        assert len(list(generator.thoughts())) == 250
        subscriptions = list(generator.subscriptions())
        assert len(subscriptions) == 150

    def test_subscriptions_respect_limit_and_self_exclusion(self):
        generator = ScadrDataGenerator(
            ScadrDataConfig(users=20, subscriptions_per_user=5)
        )
        per_owner = {}
        for row in generator.subscriptions():
            assert row["owner"] != row["target"]
            per_owner[row["owner"]] = per_owner.get(row["owner"], 0) + 1
        assert all(count == 5 for count in per_owner.values())

    def test_deterministic_given_seed(self):
        a = list(ScadrDataGenerator(ScadrDataConfig(users=10, seed=3)).subscriptions())
        b = list(ScadrDataGenerator(ScadrDataConfig(users=10, seed=3)).subscriptions())
        assert a == b


class TestTpcwGenerator:
    def test_row_counts(self):
        config = TpcwDataConfig(customers=30, items=40)
        generator = TpcwDataGenerator(config)
        assert len(list(generator.customers())) == 30
        assert len(list(generator.items())) == 40
        orders, lines, xacts = generator.orders_and_lines()
        assert len(orders) == 60
        assert len(lines) == 180
        assert len(xacts) == 60
        carts, cart_lines = generator.carts_and_lines()
        assert len(carts) == 30
        assert all(line["SCL_SC_ID"] <= 30 for line in cart_lines)

    def test_items_reference_existing_authors(self):
        generator = TpcwDataGenerator(TpcwDataConfig(customers=10, items=40))
        author_ids = {row["A_ID"] for row in generator.authors()}
        assert all(row["I_A_ID"] in author_ids for row in generator.items())


class TestLoadedScadrWorkload:
    def test_setup_loads_all_tables(self, loaded_scadr):
        db, workload = loaded_scadr
        size = db.cluster.namespace_size
        assert size("table:users") == 120
        assert size("table:subscriptions") == 120 * 5
        assert size("table:thoughts") == 120 * 10

    def test_every_query_is_prepared_and_bounded(self, loaded_scadr, rng):
        db, workload = loaded_scadr
        for name in workload.query_names():
            prepared = db.prepare(workload.query_sql(name))
            result = workload.run_query(db, name, rng)
            assert result.operations <= prepared.operation_bound

    def test_interaction_runs_all_queries(self, loaded_scadr, rng):
        db, workload = loaded_scadr
        result = workload.interaction(db, rng)
        assert set(workload.query_names()) <= set(result.query_latencies)
        assert result.latency_seconds > 0

    def test_thoughtstream_returns_subscribed_users_only(self, loaded_scadr, rng):
        db, workload = loaded_scadr
        uname = workload.usernames[0]
        followed = {
            row["username"]
            for row in db.prepare(workload.query_sql("users_followed"))
            .execute(uname=uname).rows
        }
        stream = db.prepare(workload.query_sql("thoughtstream")).execute(uname=uname)
        assert {row["owner"] for row in stream.rows} <= followed


class TestLoadedTpcwWorkload:
    def test_all_queries_return_plausible_results(self, loaded_tpcw, rng):
        db, workload = loaded_tpcw
        for name in workload.query_names():
            result = workload.run_query(db, name, rng)
            assert result.latency_seconds > 0
            if name in ("home_wi", "product_detail_wi", "order_display_get_customer"):
                assert len(result.rows) == 1

    def test_new_products_sorted_by_pub_date(self, loaded_tpcw):
        db, workload = loaded_tpcw
        result = db.prepare(TPCW_QUERIES["new_products_wi"]).execute(
            subject="COMPUTERS"
        )
        dates = [row["I_PUB_DATE"] for row in result.rows]
        assert dates == sorted(dates, reverse=True)
        assert len(result.rows) <= 50

    def test_search_by_title_matches_token(self, loaded_tpcw):
        db, workload = loaded_tpcw
        result = db.prepare(TPCW_QUERIES["search_by_title_wi"]).execute(
            title_word="database"
        )
        assert result.rows, "the generator always produces titles with 'database'"
        assert all("database" in row["I_TITLE"] for row in result.rows)

    def test_order_lines_join_items(self, loaded_tpcw):
        db, workload = loaded_tpcw
        result = db.prepare(TPCW_QUERIES["order_display_get_order_lines"]).execute(
            order_id=1
        )
        assert result.rows
        assert all("I_TITLE" in row for row in result.rows)

    def test_ordering_mix_interactions(self, loaded_tpcw):
        db, workload = loaded_tpcw
        rng = random.Random(7)
        names = set()
        for _ in range(40):
            result = workload.interaction(db, rng)
            names.add(result.name)
            assert result.latency_seconds >= 0
        # The ordering mix exercises both reads and updates.
        assert names & {"shopping_cart", "customer_registration", "buy_confirm"}
        assert names & {"home", "product_detail", "search_by_author", "search_by_title"}

    def test_mix_weights_are_positive(self):
        assert all(weight > 0 for weight in ORDERING_MIX.values())
