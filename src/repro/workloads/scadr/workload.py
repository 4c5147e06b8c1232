"""The SCADr benchmark workload (Section 8.1.2).

Each simulated request renders the SCADr "home page": it executes the four
read queries (users followed, recent thoughts, thoughtstream, find user) for
a randomly selected user and measures the overall response time.  "Post a
new thought" — a single put — occurs with 1% probability, exactly as in the
paper.

The four queries are independent of one another (they all key off the
rendered user), so the interaction plan declares them in a single stage —
the flagship pipelining case: replayed through an asynchronous session the
page costs the *slowest* of the four queries instead of their sum.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ...engine.database import PiqlDatabase
from ..base import InteractionPlan, QueryStep, Workload, WorkloadScale, WriteStep
from .data import ScadrDataConfig, ScadrDataGenerator
from .queries import EXTRA_QUERIES, QUERIES, VIEW_QUERIES
from .schema import SCADR_VIEWS_DDL, scadr_ddl

#: Chance that a home-page render also posts a thought (the paper's 1%).
POST_PROBABILITY = 0.01


class ScadrWorkload(Workload):
    """Schema + data + interaction mix for SCADr.

    ``materialized_views=True`` provisions the per-user thought- and
    subscription-count views and adds the two profile-statistics point
    queries to the home page render (one extra branch each, one bounded
    point read each).  Off by default so the paper's original workload is
    reproduced unchanged; the view benchmarks, examples, and the Table 1
    reproduction enable it.
    """

    name = "SCADr"

    def __init__(
        self,
        max_subscriptions: int = 10,
        subscriptions_per_user: int = 10,
        thoughts_per_user: int = 20,
        materialized_views: bool = False,
    ):
        # The scale experiment sets both the cardinality limit and the actual
        # number of subscriptions per user to 10 (Section 8.2).
        self.max_subscriptions = max_subscriptions
        self.subscriptions_per_user = min(subscriptions_per_user, max_subscriptions)
        self.thoughts_per_user = thoughts_per_user
        self.post_probability = POST_PROBABILITY
        self.materialized_views = materialized_views
        self._usernames: List[str] = []
        self._next_timestamp = 2_000_000_000

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self, db: PiqlDatabase, scale: WorkloadScale) -> None:
        db.execute_ddl(scadr_ddl(self.max_subscriptions))
        if self.materialized_views:
            db.execute_ddl(SCADR_VIEWS_DDL)
        config = ScadrDataConfig(
            users=scale.users_per_node * scale.storage_nodes,
            thoughts_per_user=self.thoughts_per_user,
            subscriptions_per_user=self.subscriptions_per_user,
            seed=scale.seed,
        )
        generator = ScadrDataGenerator(config)
        generator.load(db)
        self._usernames = generator.usernames()
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
        if name in VIEW_QUERIES:
            return VIEW_QUERIES[name]
        return EXTRA_QUERIES[name]

    def sample_parameters(self, name: str, rng: random.Random) -> Dict[str, object]:
        uname = rng.choice(self._usernames)
        if name == "subscriber_intersection":
            friends = [rng.choice(self._usernames) for _ in range(50)]
            return {"target_user": uname, "friends": friends}
        return {"uname": uname}

    # ------------------------------------------------------------------
    # Interactions
    # ------------------------------------------------------------------
    def interaction_plan(
        self, db: PiqlDatabase, rng: random.Random
    ) -> InteractionPlan:
        """One SCADr home-page render as a single stage of independent steps.

        The four read queries all key off the rendered user and nothing
        else; the occasional "post a new thought" write is likewise
        independent of the reads, so it joins the same stage as a fifth
        branch.
        """
        uname = rng.choice(self._usernames)
        steps = [
            QueryStep(name, self.query_sql(name), {"uname": uname})
            for name in self.query_names()
        ]
        if rng.random() < self.post_probability:
            self._next_timestamp += 1
            timestamp = self._next_timestamp

            def post_thought(database: PiqlDatabase, _results) -> None:
                database.insert(
                    "thoughts",
                    {
                        "owner": uname,
                        "timestamp": timestamp,
                        "text": "a fresh thought",
                    },
                    upsert=True,
                )

            steps.append(WriteStep("post_thought", post_thought))
        return InteractionPlan("home_page", [steps])

    # ------------------------------------------------------------------
    # Helpers used by specific experiments
    # ------------------------------------------------------------------
    @property
    def usernames(self) -> List[str]:
        return self._usernames
