"""The TPC-W workload: web interactions and the ordering mix (Section 8.1.1).

Each web interaction is modelled as an :class:`InteractionPlan` — the DAG of
queries needed to render one page of the online bookstore.  Pages whose
queries are independent declare them in one stage, so a pipelined replay
(through an asynchronous session) overlaps them; pages with data
dependencies (buy-confirm writes the order lines it just read from the
cart) use sequential stages.

Browse-style pages additionally carry the TPC-W specification's
*promotional processing*: a banner of randomly chosen items rendered
alongside the page's primary query.  The seed-era interactions collapsed
each page to its primary queries only; the banner lookups are exactly the
kind of independent per-page work the paper's parallel execution argument
(Section 7.1) is about, so they are modelled as explicit parallel branches.

The *ordering* mix is used throughout the paper's experiments because it is
the most update-intensive (roughly 30% of the interactions lead to
updates); the weights below follow the TPC-W specification's ordering mix
restricted to the interactions the paper implements (Best Sellers and Admin
Confirm are omitted).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

from ...engine.database import PiqlDatabase
from ..base import InteractionPlan, QueryStep, Workload, WorkloadScale, WriteStep
from .data import TpcwDataConfig, TpcwDataGenerator
from .queries import QUERIES, VIEW_QUERIES
from .schema import SUBJECTS, TPCW_DDL, TPCW_VIEWS_DDL

#: Ordering-mix interaction weights (normalised at use).  Derived from the
#: TPC-W specification's ordering mix with the omitted interactions' weight
#: folded into browsing.
ORDERING_MIX: Dict[str, float] = {
    "home": 0.14,
    "new_products": 0.02,
    "product_detail": 0.16,
    "search_by_author": 0.065,
    "search_by_title": 0.065,
    "order_display": 0.01,
    "shopping_cart": 0.135,
    "customer_registration": 0.128,
    "buy_request": 0.127,
    "buy_confirm": 0.10,
}

#: How many promotional-banner items browse pages render (TPC-W §2's
#: promotional processing, scaled down like the rest of the workload).
PROMOTIONAL_ITEMS = 2

#: Ordering-mix weight of the restored Best Sellers interaction (the TPC-W
#: specification's ordering mix gives Best Sellers 0.46%).
BEST_SELLERS_WEIGHT = 0.0046


class TpcwWorkload(Workload):
    """Schema + data + ordering-mix interaction plans for TPC-W.

    ``materialized_views=True`` additionally provisions the
    ``best_sellers_by_subject`` view, restores the Best Sellers web
    interaction (a bounded view-index scan) into the ordering mix, and pays
    the statically bounded view-maintenance cost on every order-line insert.
    The default is off so the paper's original Table 1 / Figure 8 workload
    is reproduced bit-for-bit; the view benchmarks, examples, and the
    Table 1 reproduction enable it.
    """

    name = "TPC-W"

    def __init__(self, materialized_views: bool = False):
        self.materialized_views = materialized_views
        self.mix = dict(ORDERING_MIX)
        if materialized_views:
            # Restore Best Sellers into the ordering mix.
            self.mix["best_sellers"] = BEST_SELLERS_WEIGHT
        self._unames: List[str] = []
        self._item_ids: List[int] = []
        self._order_ids: List[int] = []
        self._cart_ids: List[int] = []
        self._author_names: List[str] = []
        self._title_words: List[str] = []
        self._order_counter = itertools.count(10_000_000)
        self._customer_counter = itertools.count(10_000_000)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self, db: PiqlDatabase, scale: WorkloadScale) -> None:
        db.execute_ddl(TPCW_DDL)
        if self.materialized_views:
            # Views are declared before the bulk load so the loader maintains
            # them through the latency-free load path as data streams in.
            db.execute_ddl(TPCW_VIEWS_DDL)
        config = TpcwDataConfig(
            customers=scale.users_per_node * scale.storage_nodes,
            items=scale.items_total,
            seed=scale.seed,
        )
        generator = TpcwDataGenerator(config)
        generator.load(db)
        self._unames = generator.customer_unames()
        self._item_ids = generator.item_ids()
        self._order_ids = generator.order_ids()
        self._cart_ids = generator.cart_ids()
        self._author_names = generator.author_last_names()
        self._title_words = generator.title_words()
        self.prepare_all(db)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_names(self) -> List[str]:
        names = list(QUERIES)
        if self.materialized_views:
            names.extend(VIEW_QUERIES)
        return names

    def query_sql(self, name: str) -> str:
        if name in QUERIES:
            return QUERIES[name]
        return VIEW_QUERIES[name]

    def sample_parameters(self, name: str, rng: random.Random) -> Dict[str, object]:
        if name in ("home_wi", "order_display_get_customer",
                    "order_display_get_last_order"):
            return {"uname": rng.choice(self._unames)}
        if name in ("new_products_wi", "best_sellers_wi"):
            return {"subject": rng.choice(SUBJECTS)}
        if name == "product_detail_wi":
            return {"item_id": rng.choice(self._item_ids)}
        if name == "search_by_author_wi":
            return {"author_name": rng.choice(self._author_names)}
        if name == "search_by_title_wi":
            return {"title_word": rng.choice(self._title_words)}
        if name == "order_display_get_order_lines":
            return {"order_id": rng.choice(self._order_ids)}
        if name == "buy_request_wi":
            return {"cart_id": rng.choice(self._cart_ids)}
        raise KeyError(name)

    # ------------------------------------------------------------------
    # Web interactions (plans)
    # ------------------------------------------------------------------
    def interaction_plan(
        self, db: PiqlDatabase, rng: random.Random
    ) -> InteractionPlan:
        """Sample one web interaction from the ordering mix as a plan."""
        names = list(self.mix)
        weights = [self.mix[n] for n in names]
        choice = rng.choices(names, weights=weights, k=1)[0]
        builder = getattr(self, f"_plan_{choice}")
        return builder(db, rng)

    # -- shared page elements -------------------------------------------
    def _query_step(self, label: str, query_name: str, parameters) -> QueryStep:
        return QueryStep(label, self.query_sql(query_name), parameters)

    def _promotional_steps(self, rng: random.Random) -> List[QueryStep]:
        """The page's promotional banner: independent item lookups."""
        return [
            self._query_step(
                f"promo_item_{position}",
                "product_detail_wi",
                {"item_id": rng.choice(self._item_ids)},
            )
            for position in range(1, PROMOTIONAL_ITEMS + 1)
        ]

    # -- read-dominant interactions ------------------------------------
    def _plan_home(self, db, rng) -> InteractionPlan:
        uname = rng.choice(self._unames)
        return InteractionPlan(
            "home",
            [[self._query_step("home_wi", "home_wi", {"uname": uname}),
              *self._promotional_steps(rng)]],
        )

    def _plan_new_products(self, db, rng) -> InteractionPlan:
        return InteractionPlan(
            "new_products",
            [[self._query_step("new_products_wi", "new_products_wi",
                               {"subject": rng.choice(SUBJECTS)}),
              *self._promotional_steps(rng)]],
        )

    def _plan_product_detail(self, db, rng) -> InteractionPlan:
        return InteractionPlan(
            "product_detail",
            [[self._query_step("product_detail_wi", "product_detail_wi",
                               {"item_id": rng.choice(self._item_ids)})]],
        )

    def _plan_search_by_author(self, db, rng) -> InteractionPlan:
        return InteractionPlan(
            "search_by_author",
            [[self._query_step("search_by_author_wi", "search_by_author_wi",
                               {"author_name": rng.choice(self._author_names)}),
              *self._promotional_steps(rng)]],
        )

    def _plan_search_by_title(self, db, rng) -> InteractionPlan:
        return InteractionPlan(
            "search_by_title",
            [[self._query_step("search_by_title_wi", "search_by_title_wi",
                               {"title_word": rng.choice(self._title_words)}),
              *self._promotional_steps(rng)]],
        )

    def _plan_best_sellers(self, db, rng) -> InteractionPlan:
        """The restored Best Sellers page: a bounded view-index scan."""
        return InteractionPlan(
            "best_sellers",
            [[self._query_step("best_sellers_wi", "best_sellers_wi",
                               {"subject": rng.choice(SUBJECTS)}),
              *self._promotional_steps(rng)]],
        )

    def _plan_order_display(self, db, rng) -> InteractionPlan:
        uname = rng.choice(self._unames)
        order_id = rng.choice(self._order_ids)
        return InteractionPlan(
            "order_display",
            [[
                self._query_step("order_display_get_customer",
                                 "order_display_get_customer", {"uname": uname}),
                self._query_step("order_display_get_last_order",
                                 "order_display_get_last_order", {"uname": uname}),
                self._query_step("order_display_get_order_lines",
                                 "order_display_get_order_lines",
                                 {"order_id": order_id}),
            ]],
        )

    def _plan_buy_request(self, db, rng) -> InteractionPlan:
        uname = rng.choice(self._unames)
        cart_id = rng.choice(self._cart_ids)
        return InteractionPlan(
            "buy_request",
            [[
                self._query_step("order_display_get_customer",
                                 "order_display_get_customer", {"uname": uname}),
                self._query_step("buy_request_wi", "buy_request_wi",
                                 {"cart_id": cart_id}),
            ]],
        )

    # -- updating interactions ------------------------------------------
    def _plan_shopping_cart(self, db, rng) -> InteractionPlan:
        cart_id = rng.choice(self._cart_ids)
        item_id = rng.choice(self._item_ids)
        quantity = rng.randrange(1, 4)

        def add_line(database: PiqlDatabase, _results) -> None:
            database.insert(
                "shopping_cart_line",
                {"SCL_SC_ID": cart_id, "SCL_I_ID": item_id, "SCL_QTY": quantity},
                upsert=True,
            )

        return InteractionPlan(
            "shopping_cart",
            [[WriteStep("shopping_cart", add_line),
              *self._promotional_steps(rng)]],
        )

    def _plan_customer_registration(self, db, rng) -> InteractionPlan:
        index = next(self._customer_counter)
        uname = f"newcust{index:09d}"

        def register(database: PiqlDatabase, _results) -> None:
            database.insert(
                "customer",
                {
                    "C_UNAME": uname,
                    "C_PASSWD": "pw",
                    "C_FNAME": "new",
                    "C_LNAME": "customer",
                    "C_EMAIL": f"{uname}@example.com",
                    "C_PHONE": "510-555-0000",
                    "C_ADDR_ID": 1,
                    "C_DISCOUNT": 0.0,
                    "C_BALANCE": 0.0,
                    "C_YTD_PMT": 0.0,
                    "C_SINCE": 1_330_000_000,
                    "C_LAST_VISIT": 1_330_000_000,
                },
                upsert=True,
            )

        self._unames.append(uname)
        return InteractionPlan(
            "customer_registration",
            [[WriteStep("customer_registration", register)]],
        )

    def _plan_buy_confirm(self, db, rng) -> InteractionPlan:
        """Create an order from a cart: the most write-heavy interaction.

        Stage 1 reads the cart; stage 2 — built once the cart rows are known
        — issues three independent write branches (the order row, its lines
        plus the payment record, and the cart cleanup TPC-W mandates once an
        order is placed).  The lines are one ``insert_many`` and the cleanup
        one ``delete_many``: however many lines the cart holds, the lines
        cost one batched write of ``order_line`` and one cardinality count
        of the order, and the cleanup one batched delete (the cart table
        has no index or view, so nothing is read first).
        """
        uname = rng.choice(self._unames)
        order_id = next(self._order_counter)
        cart_id = rng.choice(self._cart_ids)
        read_stage = [
            self._query_step("buy_request_wi", "buy_request_wi",
                             {"cart_id": cart_id})
        ]

        def write_stage(database: PiqlDatabase, results):
            cart_rows = results["buy_request_wi"].rows
            date_time = 1_330_000_000 + order_id

            def place_order(db_: PiqlDatabase, _results) -> None:
                db_.insert(
                    "orders",
                    {
                        "O_ID": order_id,
                        "O_C_UNAME": uname,
                        "O_DATE_TIME": date_time,
                        "O_SUB_TOTAL": 100.0,
                        "O_TAX": 8.25,
                        "O_TOTAL": 108.25,
                        "O_SHIP_TYPE": "GROUND",
                        "O_SHIP_DATE": date_time + 86_400,
                        "O_SHIP_ADDR_ID": 1,
                        "O_STATUS": "PENDING",
                    },
                    upsert=True,
                )

            def record_lines(db_: PiqlDatabase, _results) -> None:
                db_.insert_many(
                    "order_line",
                    [
                        {
                            "OL_O_ID": order_id,
                            "OL_ID": line_number,
                            "OL_I_ID": row.get("SCL_I_ID", rng.choice(self._item_ids)),
                            "OL_QTY": row.get("SCL_QTY", 1),
                            "OL_DISCOUNT": 0.0,
                            "OL_COMMENT": "",
                        }
                        for line_number, row in enumerate(cart_rows[:10], start=1)
                    ],
                    upsert=True,
                )
                db_.insert(
                    "cc_xacts",
                    {
                        "CX_O_ID": order_id,
                        "CX_TYPE": "VISA",
                        "CX_NUM": "4111-0000",
                        "CX_NAME": uname,
                        "CX_EXPIRE": 1_400_000_000,
                        "CX_XACT_AMT": 108.25,
                        "CX_XACT_DATE": date_time,
                        "CX_CO_ID": 1,
                    },
                    upsert=True,
                )

            def clear_cart(db_: PiqlDatabase, _results) -> None:
                # TPC-W empties the cart once the order is placed.  Without
                # this the cart grows with every SHOPPING_CART interaction
                # and the per-interaction cost of reading it climbs for the
                # whole run, destabilising long serving simulations.
                db_.delete_many(
                    "shopping_cart_line",
                    [[cart_id, row["SCL_I_ID"]]
                     for row in cart_rows if "SCL_I_ID" in row],
                )
                self._order_ids.append(order_id)

            return [
                WriteStep("place_order", place_order),
                WriteStep("record_lines", record_lines),
                WriteStep("clear_cart", clear_cart),
            ]

        return InteractionPlan("buy_confirm", [read_stage, write_stage])
