"""Query scaling classes (Section 2 / Figure 1).

The paper divides queries into four classes by how the amount of data
relevant to one query grows with database size:

* **Class I (constant)** — e.g. looking up a user by primary key;
* **Class II (bounded)** — data grows with success but is capped by a
  real-world / schema cardinality limit, e.g. the thoughtstream of a user
  with a bounded number of subscriptions;
* **Class III (linear / sub-linear)** — e.g. listing every user from a
  given hometown;
* **Class IV (super-linear)** — e.g. a self-join computing all pairs of
  users from the same hometown (the shape of clustering-style queries).

A success-tolerant application can use only Classes I and II.  The analysis
here measures the relevant-data growth for a representative query of each
class on generated SCADr data, and checks that the PIQL optimizer accepts
exactly the Class I/II queries and rejects the Class III/IV ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..engine.database import PiqlDatabase
from ..errors import NotScaleIndependentError
from ..kvstore.cluster import ClusterConfig
from ..workloads.scadr.data import ScadrDataConfig, ScadrDataGenerator
from ..workloads.scadr.queries import THOUGHTSTREAM
from ..workloads.scadr.schema import scadr_ddl

#: Representative queries for each class, expressed in PIQL.
CLASS_QUERIES: Dict[str, str] = {
    "class1_find_user": "SELECT * FROM users WHERE username = <uname>",
    "class2_thoughtstream": THOUGHTSTREAM,
    "class3_users_by_hometown": (
        "SELECT * FROM users WHERE hometown = <town>"
    ),
    "class4_hometown_pairs": (
        "SELECT u1.username, u2.username FROM users u1 JOIN users u2 "
        "WHERE u1.hometown = u2.hometown"
    ),
}

#: The SCADr shape every measured database size shares: subscriptions and
#: thoughts per user, the thoughtstream's page, and the data seed.
SUBSCRIPTIONS_PER_USER = 10
THOUGHTS_PER_USER = 10
PAGE_SIZE = 10
SEED = 5


@dataclass
class ClassPoint:
    """Relevant-data sizes for one database size."""

    users: int
    class1_constant: int
    class2_bounded: int
    class3_linear: int
    class4_superlinear: int


@dataclass
class ScalingClassResult:
    points: List[ClassPoint] = field(default_factory=list)
    accepted_by_piql: Dict[str, bool] = field(default_factory=dict)

    def growth_factor(self, attribute: str) -> float:
        """Relevant-data growth between the smallest and largest database."""
        first = getattr(self.points[0], attribute)
        last = getattr(self.points[-1], attribute)
        return last / max(first, 1)

    def database_growth_factor(self) -> float:
        return self.points[-1].users / max(self.points[0].users, 1)


class ScalingClassAnalysis:
    """Measures Figure 1's four growth curves on generated SCADr data."""

    def __init__(self, user_counts: Sequence[int] = (500, 1000, 2000, 4000)):
        self.user_counts = list(user_counts)

    # ------------------------------------------------------------------
    # Relevant-data measurement
    # ------------------------------------------------------------------
    def _point(self, users: int) -> ClassPoint:
        config = ScadrDataConfig(
            users=users,
            thoughts_per_user=THOUGHTS_PER_USER,
            subscriptions_per_user=SUBSCRIPTIONS_PER_USER,
            seed=SEED,
        )
        generator = ScadrDataGenerator(config)
        hometowns = Counter(row["hometown"] for row in generator.users())

        # Class I: a primary-key lookup touches exactly one row.
        class1 = 1
        # Class II: the thoughtstream touches the user's subscriptions plus
        # one page of thoughts per subscription — bounded by the schema.
        class2 = SUBSCRIPTIONS_PER_USER * (1 + PAGE_SIZE)
        # Class III: listing the users of one (average) hometown.
        class3 = int(sum(hometowns.values()) / max(len(hometowns), 1))
        # Class IV: all pairs of users sharing a hometown (self-join).
        class4 = sum(count * (count - 1) for count in hometowns.values())
        return ClassPoint(
            users=users,
            class1_constant=class1,
            class2_bounded=class2,
            class3_linear=class3,
            class4_superlinear=class4,
        )

    # ------------------------------------------------------------------
    # PIQL admissibility check
    # ------------------------------------------------------------------
    def check_piql_acceptance(self) -> Dict[str, bool]:
        """Which class queries does the PIQL optimizer accept?

        Classes I and II must compile to bounded plans; Classes III and IV
        must be rejected with :class:`NotScaleIndependentError`.
        """
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=SEED))
        db.execute_ddl(scadr_ddl(SUBSCRIPTIONS_PER_USER))
        accepted: Dict[str, bool] = {}
        for name, sql in CLASS_QUERIES.items():
            try:
                db.optimizer.optimize(sql)
                accepted[name] = True
            except NotScaleIndependentError:
                accepted[name] = False
        return accepted

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> ScalingClassResult:
        result = ScalingClassResult()
        for users in self.user_counts:
            result.points.append(self._point(users))
        result.accepted_by_piql = self.check_piql_acceptance()
        return result
