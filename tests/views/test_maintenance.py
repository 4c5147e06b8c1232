"""Delta-maintenance correctness: counters, MIN/MAX buffers, top-k eviction."""

from __future__ import annotations

import pytest

from repro import PiqlDatabase
from repro.kvstore.cluster import ClusterConfig
from repro.plans.bounds import write_operation_bound
from repro.views.maintenance import (
    MINMAX_CANDIDATES,
    maintenance_operation_bound,
    recompute_top_k,
    recompute_view,
    visible_row,
)

DDL = """
CREATE TABLE sales (
    sale_id INT, shop VARCHAR(16), product VARCHAR(16), amount INT,
    PRIMARY KEY (sale_id)
)
"""

TOP_K_VIEW = """
CREATE MATERIALIZED VIEW product_totals AS
SELECT shop, product, SUM(amount) AS total
FROM sales
GROUP BY shop, product
ORDER BY total DESC LIMIT 2
"""

TOP_K_QUERY = """
SELECT product, SUM(amount) AS total
FROM sales
WHERE shop = <shop>
GROUP BY product
ORDER BY total DESC
LIMIT 2
"""

COUNT_VIEW = """
CREATE MATERIALIZED VIEW product_counts AS
SELECT product, COUNT(*) AS n, MIN(amount) AS smallest, MAX(amount) AS largest
FROM sales
GROUP BY product
"""

COUNT_QUERY = """
SELECT product, COUNT(*) AS n, MIN(amount) AS smallest, MAX(amount) AS largest
FROM sales
WHERE product = <product>
GROUP BY product
"""


@pytest.fixture
def db() -> PiqlDatabase:
    database = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=11))
    database.execute_ddl(DDL)
    return database


def sale(db, sale_id, shop, product, amount):
    db.insert("sales", {
        "sale_id": sale_id, "shop": shop, "product": product, "amount": amount,
    })


class TestCounters:
    def test_count_decrements_to_zero_delete_the_group(self, db):
        db.create_materialized_view(COUNT_VIEW)
        query = db.prepare(COUNT_QUERY)
        sale(db, 1, "sf", "apple", 5)
        sale(db, 2, "sf", "apple", 3)
        assert query.execute(product="apple").rows == [
            {"product": "apple", "n": 2, "smallest": 3, "largest": 5}
        ]
        db.delete("sales", [2])
        assert query.execute(product="apple").rows == [
            {"product": "apple", "n": 1, "smallest": 5, "largest": 5}
        ]
        # Counter decrement to zero: the group's backing record disappears
        # and the query returns no row, exactly like recomputing offline.
        db.delete("sales", [1])
        assert query.execute(product="apple").rows == []
        view = db.catalog.view("product_counts")
        assert recompute_view(view, db.catalog, db.cluster) == {}

    def test_update_moves_row_between_groups(self, db):
        db.create_materialized_view(COUNT_VIEW)
        query = db.prepare(COUNT_QUERY)
        sale(db, 1, "sf", "apple", 5)
        db.update("sales", {
            "sale_id": 1, "shop": "sf", "product": "pear", "amount": 5,
        })
        assert query.execute(product="apple").rows == []
        assert query.execute(product="pear").rows == [
            {"product": "pear", "n": 1, "smallest": 5, "largest": 5}
        ]

    def test_noop_update_skips_view_and_index_writes(self, db):
        db.create_materialized_view(COUNT_VIEW)
        sale(db, 1, "sf", "apple", 5)
        before = db.client.stats.operations
        # shop is neither grouped nor aggregated by the view and not indexed:
        # the update must cost exactly the base record's get + put.
        db.update("sales", {
            "sale_id": 1, "shop": "oakland", "product": "apple", "amount": 5,
        })
        assert db.client.stats.operations - before == 2

    def test_upsert_overwrite_retracts_old_contribution(self, db):
        db.create_materialized_view(COUNT_VIEW)
        query = db.prepare(COUNT_QUERY)
        db.insert("sales", {
            "sale_id": 1, "shop": "sf", "product": "apple", "amount": 5,
        }, upsert=True)
        db.insert("sales", {
            "sale_id": 1, "shop": "sf", "product": "apple", "amount": 9,
        }, upsert=True)
        assert query.execute(product="apple").rows == [
            {"product": "apple", "n": 1, "smallest": 9, "largest": 9}
        ]


class TestMinMaxBuffers:
    def test_minmax_tracks_deletes_within_buffer(self, db):
        db.create_materialized_view(COUNT_VIEW)
        query = db.prepare(COUNT_QUERY)
        for index, amount in enumerate([4, 9, 1, 7]):
            sale(db, index, "sf", "apple", amount)
        db.delete("sales", [2])  # removes the current minimum (1)
        assert query.execute(product="apple").rows == [
            {"product": "apple", "n": 3, "smallest": 4, "largest": 9}
        ]

    def test_minmax_buffer_underflow_reports_none(self, db):
        """Documented bounded-state limitation: an emptied candidate buffer
        cannot recover evicted values until a new delta refills it."""
        db.create_materialized_view(COUNT_VIEW)
        query = db.prepare(COUNT_QUERY)
        amounts = list(range(MINMAX_CANDIDATES + 3))
        for index, amount in enumerate(amounts):
            sale(db, index, "sf", "apple", amount)
        # Delete every value the MIN buffer could be holding.
        for index in range(MINMAX_CANDIDATES + 1):
            db.delete("sales", [index])
        rows = query.execute(product="apple").rows
        assert rows[0]["n"] == 2
        assert rows[0]["smallest"] is None  # underflow, honestly reported
        assert rows[0]["largest"] == amounts[-1]


class TestTopK:
    def test_eviction_then_reentry_after_delete(self, db):
        db.create_materialized_view(TOP_K_VIEW)
        query = db.prepare(TOP_K_QUERY)
        sale(db, 1, "sf", "apple", 10)
        sale(db, 2, "sf", "pear", 8)
        # cherry is evicted at the boundary check: the top-2 index is full
        # with larger totals.
        sale(db, 3, "sf", "cherry", 5)
        assert [r["product"] for r in query.execute(shop="sf").rows] == [
            "apple", "pear",
        ]
        # Deleting pear's sale shrinks the partition below capacity...
        db.delete("sales", [2])
        # ...and cherry re-enters on its next delta (lazy re-entry: bounded
        # state cannot resurrect evicted entries spontaneously).
        sale(db, 4, "sf", "cherry", 1)
        rows = query.execute(shop="sf").rows
        assert [r["product"] for r in rows] == ["apple", "cherry"]
        assert rows[1]["total"] == 6

    def test_monotone_growth_matches_offline_recompute_exactly(self, db):
        db.create_materialized_view(TOP_K_VIEW)
        query = db.prepare(TOP_K_QUERY)
        import random
        rng = random.Random(3)
        products = ["apple", "pear", "cherry", "fig", "plum"]
        for sale_id in range(120):
            sale(db, sale_id, rng.choice(["sf", "la"]),
                 rng.choice(products), rng.randrange(1, 6))
        view = db.catalog.view("product_totals")
        recomputed = recompute_view(view, db.catalog, db.cluster)
        for shop in ("sf", "la"):
            expected = [
                {"product": row["product"], "total": row["total"]}
                for row in recompute_top_k(view, recomputed, (shop,))
            ]
            assert query.execute(shop=shop).rows == expected

    def test_ties_break_identically_to_recompute(self, db):
        db.create_materialized_view(TOP_K_VIEW)
        query = db.prepare(TOP_K_QUERY)
        for sale_id, product in enumerate(["apple", "pear", "cherry"]):
            sale(db, sale_id, "sf", product, 7)  # three-way tie, capacity 2
        view = db.catalog.view("product_totals")
        recomputed = recompute_view(view, db.catalog, db.cluster)
        expected = [
            {"product": row["product"], "total": row["total"]}
            for row in recompute_top_k(view, recomputed, ("sf",))
        ]
        assert query.execute(shop="sf").rows == expected


class TestBackfillAndBounds:
    def test_backfill_over_existing_data_matches_incremental(self, db):
        for sale_id in range(30):
            sale(db, sale_id, "sf", f"p{sale_id % 4}", 1 + sale_id % 3)
        db.create_materialized_view(TOP_K_VIEW)  # backfilled, not empty
        query = db.prepare(TOP_K_QUERY)
        view = db.catalog.view("product_totals")
        recomputed = recompute_view(view, db.catalog, db.cluster)
        expected = [
            {"product": row["product"], "total": row["total"]}
            for row in recompute_top_k(view, recomputed, ("sf",))
        ]
        assert query.execute(shop="sf").rows == expected

    def test_backfilling_a_second_view_leaves_the_first_alone(self, db):
        """Backfill folds the existing rows into the new view only: a view
        already maintained over the same table keeps its counts."""
        db.create_materialized_view(COUNT_VIEW)
        for sale_id in range(6):
            sale(db, sale_id, "sf", f"p{sale_id % 2}", 1 + sale_id)
        db.create_materialized_view(TOP_K_VIEW)
        for name in ("product_counts", "product_totals"):
            view = db.catalog.view(name)
            assert {
                tuple(state[c] for c in view.group_column_names):
                    visible_row(view, state)
                for state in db.records.scan(view.backing_table.name)
            } == recompute_view(view, db.catalog, db.cluster), name

    def test_static_write_bound_covers_measured_cost(self, db):
        db.create_materialized_view(TOP_K_VIEW)
        bound = write_operation_bound(db.catalog, "sales")
        view = db.catalog.view("product_totals")
        assert maintenance_operation_bound(view) <= bound
        worst = 0
        for sale_id in range(40):
            before = db.client.stats.operations
            sale(db, sale_id, "sf", f"p{sale_id % 6}", 1 + sale_id % 5)
            worst = max(worst, db.client.stats.operations - before)
        assert worst <= bound

    def test_static_write_bound_covers_cross_group_updates(self, db):
        """The worst case: an update that moves a row between groups pays
        two full contribution deltas (both group RMWs and both top-k index
        updates) — the static bound must still cover it."""
        db.create_materialized_view(TOP_K_VIEW)
        bound = write_operation_bound(db.catalog, "sales")
        for sale_id, product in enumerate(["a", "b", "c", "d"]):
            sale(db, sale_id, "sf", product, 5 - sale_id)
        worst = 0
        import random
        rng = random.Random(6)
        for step in range(30):
            sale_id = rng.randrange(4)
            before = db.client.stats.operations
            db.update("sales", {
                "sale_id": sale_id, "shop": "sf",
                "product": rng.choice(["a", "b", "c", "d", "e"]),
                "amount": rng.randrange(1, 9),
            })
            worst = max(worst, db.client.stats.operations - before)
        assert worst <= bound

    def test_mixed_delta_on_missing_group_record_applies_add_only(self, db):
        """An update delta whose group record is absent (lost, or never
        materialized) must not drive counters negative or crash — the
        retraction is dropped and the addition materializes the group."""
        db.create_materialized_view(TOP_K_VIEW)
        query = db.prepare(TOP_K_QUERY)
        db.views.apply(
            "sales",
            {"sale_id": 9, "shop": "sf", "product": "ghost", "amount": 4},
            {"sale_id": 9, "shop": "sf", "product": "ghost", "amount": 7},
        )
        assert query.execute(shop="sf").rows == [
            {"product": "ghost", "total": 7}
        ]

    def test_direct_dml_against_backing_table_is_rejected(self, db):
        from repro.errors import SchemaError
        db.create_materialized_view(COUNT_VIEW)
        sale(db, 1, "sf", "apple", 5)
        with pytest.raises(SchemaError, match="cannot be written directly"):
            db.insert("product_counts", {"product": "x", "n": 9,
                                         "smallest": 1, "largest": 1})
        with pytest.raises(SchemaError, match="cannot be written directly"):
            db.update("product_counts", {"product": "apple", "n": 0,
                                         "smallest": None, "largest": None})
        with pytest.raises(SchemaError, match="cannot be written directly"):
            db.delete("product_counts", ["apple"])
        with pytest.raises(SchemaError, match="cannot be written directly"):
            db.bulk_load("product_counts", [{"product": "y", "n": 1,
                                             "smallest": 1, "largest": 1}])
        # Maintenance itself still writes the backing table fine.
        sale(db, 2, "sf", "apple", 7)
        rows = db.prepare(COUNT_QUERY).execute(product="apple").rows
        assert rows[0]["n"] == 2

    def test_bulk_load_maintains_views_latency_free(self, db):
        db.create_materialized_view(TOP_K_VIEW)
        clock_before = db.client.clock.now
        db.bulk_load("sales", [
            {"sale_id": i, "shop": "sf", "product": f"p{i % 3}", "amount": 2}
            for i in range(50)
        ])
        assert db.client.clock.now == clock_before  # no simulated latency
        query = db.prepare(TOP_K_QUERY)
        view = db.catalog.view("product_totals")
        recomputed = recompute_view(view, db.catalog, db.cluster)
        expected = [
            {"product": row["product"], "total": row["total"]}
            for row in recompute_top_k(view, recomputed, ("sf",))
        ]
        assert query.execute(shop="sf").rows == expected


AVG_VIEW = """
CREATE MATERIALIZED VIEW product_means AS
SELECT product, COUNT(*) AS n, AVG(amount) AS mean
FROM sales
GROUP BY product
"""

AVG_QUERY = """
SELECT product, COUNT(*) AS n, AVG(amount) AS mean
FROM sales
WHERE product = <product>
GROUP BY product
"""


class TestAverage:
    def test_random_writes_match_offline_recomputation(self, db):
        """300 random inserts, updates (group moves included) and deletes:
        the AVG view's merge state matches a recomputation from the base
        table after every write."""
        import random
        db.create_materialized_view(AVG_VIEW)
        view = db.catalog.view("product_means")
        query = db.prepare(AVG_QUERY)
        assert query.optimized.view_used == "product_means"
        rng = random.Random(41)
        products = ["apple", "pear", "fig", "plum"]
        live = {}
        for step in range(300):
            action = rng.random()
            if not live or action < 0.45:
                sale_id = step
                live[sale_id] = rng.choice(products)
                sale(db, sale_id, "sf", live[sale_id], rng.randrange(1, 50))
            elif action < 0.8:
                sale_id = rng.choice(sorted(live))
                live[sale_id] = rng.choice(products)  # may move the group
                db.update("sales", {
                    "sale_id": sale_id, "shop": "sf",
                    "product": live[sale_id], "amount": rng.randrange(1, 50),
                })
            else:
                sale_id = rng.choice(sorted(live))
                del live[sale_id]
                db.delete("sales", [sale_id])
            expected = recompute_view(view, db.catalog, db.cluster)
            for product in products:
                rows = query.execute(product=product).rows
                truth = expected.get((product,))
                assert rows == ([] if truth is None else [truth]), (step, product)
        assert 0 < len(live) < 300
