"""Subscriber-intersection comparison: PIQL vs. cost-based planning (Figure 7).

The query checks which of the current user's 50 friends are subscribed to a
target user::

    SELECT * FROM subscriptions
    WHERE target = <target_user> AND owner IN [1: friends(50)]

PIQL's scale-independent plan performs at most 50 bounded random reads
against the subscriptions primary key.  A traditional cost-based optimizer,
knowing that the *average* user has only ~126 subscribers, instead scans the
``target`` secondary index and filters locally — cheaper on average, but its
latency grows without bound with the target's popularity.  The experiment
runs both plans against target users of increasing popularity and reports
99th-percentile latencies, reproducing the crossover of Figure 7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..engine.database import PiqlDatabase
from ..kvstore.cluster import ClusterConfig
from ..optimizer.cost_based import CostBasedOptimizer, TableStatistics
from ..stats import nearest_rank_percentile
from ..workloads.scadr.queries import SUBSCRIBER_INTERSECTION
from ..workloads.scadr.schema import scadr_ddl
from .experiment import Experiment, claim
from .reporting import format_table


@dataclass
class IntersectionPoint:
    """99th-percentile latency of both plans for one target popularity."""

    subscribers: int
    bounded_p99_ms: float
    unbounded_p99_ms: float
    bounded_operations: int
    unbounded_operations: int


#: Friends per query: the ``IN [1: friends(50)]`` list.
FRIENDS = 50
#: Mean subscribers per target the cost-based optimizer is told: the 2009
#: Twitter average cited in §8.3.
AVERAGE_SUBSCRIBERS = 126.0
SEED = 31


@dataclass
class IntersectionExperimentConfig:
    """Setup of the Figure 7 experiment."""

    storage_nodes: int = 10
    subscriber_counts: Sequence[int] = (0, 500, 1000, 2000, 3000, 4000, 5000)
    executions_per_point: int = 100
    fan_pool: int = 6000


@dataclass
class IntersectionResult:
    points: List[IntersectionPoint] = field(default_factory=list)

    def crossover_subscribers(self) -> Optional[int]:
        """Smallest popularity at which the bounded plan wins, if any."""
        for point in self.points:
            if point.bounded_p99_ms < point.unbounded_p99_ms:
                return point.subscribers
        return None


def _build_database(
    config: IntersectionExperimentConfig,
) -> Tuple[PiqlDatabase, List[str]]:
    """The loaded database and the fan usernames friends are drawn from."""
    db = PiqlDatabase.simulated(
        ClusterConfig(storage_nodes=config.storage_nodes, seed=SEED)
    )
    # A large cardinality limit on subscriptions per owner: each fan
    # follows a handful of users, while a *target* may have millions of
    # subscribers without violating any constraint.
    db.execute_ddl(scadr_ddl(max_subscriptions=100))
    fans = [f"fan{i:07d}" for i in range(config.fan_pool)]
    db.bulk_load(
        "users",
        (
            {"username": name, "password": "x", "hometown": "web", "created": i}
            for i, name in enumerate(fans)
        ),
    )
    targets = []
    rows = []
    for subscribers in config.subscriber_counts:
        target = f"target{subscribers:07d}"
        targets.append(target)
        for fan_index in range(subscribers):
            rows.append(
                {
                    "owner": fans[fan_index % len(fans)] if subscribers <= len(fans)
                    else f"fan{fan_index:07d}",
                    "target": target,
                    "approved": True,
                }
            )
    db.bulk_load(
        "users",
        (
            {"username": t, "password": "x", "hometown": "web", "created": 0}
            for t in targets
        ),
    )
    db.bulk_load("subscriptions", rows)
    return db, fans


def run(config: IntersectionExperimentConfig) -> IntersectionResult:
    """Run the bounded (PIQL) and unbounded (cost-based) plans side by side."""
    db, fans = _build_database(config)
    rng = random.Random(SEED)

    # PIQL plan: bounded random lookups.
    bounded_query = db.prepare(SUBSCRIBER_INTERSECTION)

    # Cost-based plan: unbounded index scan over subscriptions(target).
    statistics = {
        "subscriptions": TableStatistics(
            row_count=db.records.count("subscriptions"),
            avg_rows_per_value={("target",): AVERAGE_SUBSCRIBERS},
        )
    }
    cost_optimizer = CostBasedOptimizer(db.catalog, statistics)
    costed = cost_optimizer.optimize(SUBSCRIBER_INTERSECTION)
    for index in costed.required_indexes:
        if not db.catalog.has_index(index.name):
            db.create_index(index)

    def reseed_noise() -> None:
        # Paired comparison: both plans replay the same service-time
        # noise streams, so their latency difference reflects the plan
        # shapes rather than which run happened to draw the stragglers.
        db.cluster.reseed_latency_models(SEED)

    result = IntersectionResult()
    for subscribers in config.subscriber_counts:
        target = f"target{subscribers:07d}"
        parameter_sets = [
            {
                "target_user": target,
                "friends": rng.sample(fans, FRIENDS),
            }
            for _ in range(config.executions_per_point)
        ]
        bounded_latencies: List[float] = []
        unbounded_latencies: List[float] = []
        bounded_ops = 0
        unbounded_ops = 0
        reseed_noise()
        for parameters in parameter_sets:
            bounded = bounded_query.execute(parameters)
            bounded_latencies.append(bounded.latency_seconds)
            bounded_ops = max(bounded_ops, bounded.operations)
        reseed_noise()
        for parameters in parameter_sets:
            unbounded = db.executor.execute_physical_plan(
                costed.physical_plan, parameters
            )
            unbounded_latencies.append(unbounded.latency_seconds)
            unbounded_ops = max(unbounded_ops, unbounded.operations)
        result.points.append(
            IntersectionPoint(
                subscribers=subscribers,
                bounded_p99_ms=(
                    nearest_rank_percentile(bounded_latencies, 0.99) * 1000.0
                ),
                unbounded_p99_ms=(
                    nearest_rank_percentile(unbounded_latencies, 0.99) * 1000.0
                ),
                bounded_operations=bounded_ops,
                unbounded_operations=unbounded_ops,
            )
        )
    return result


# ----------------------------------------------------------------------
# The experiment record
# ----------------------------------------------------------------------
def _rows(result: IntersectionResult) -> List[tuple]:
    return [
        (p.subscribers, round(p.unbounded_p99_ms, 1), round(p.bounded_p99_ms, 1),
         p.unbounded_operations, p.bounded_operations)
        for p in result.points
    ]


def _check(result: IntersectionResult) -> None:
    first, last = result.points[0], result.points[-1]
    claim("fig7: the cost-based plan wins for unpopular users",
          first.unbounded_p99_ms < first.bounded_p99_ms)
    claim("fig7: the cost-based plan's latency grows with popularity",
          last.unbounded_p99_ms > 5 * first.unbounded_p99_ms)
    claim("fig7: the cost-based plan's work grows with popularity",
          last.unbounded_operations > 1000, last.unbounded_operations)
    claim("fig7: the PIQL plan's work stays within its bound of 50 lookups",
          all(p.bounded_operations <= 50 for p in result.points))
    claim("fig7: the PIQL plan's latency stays roughly flat",
          last.bounded_p99_ms < 5 * max(first.bounded_p99_ms, 1.0))
    claim("fig7: the scale-independent plan wins for popular users",
          last.bounded_p99_ms < last.unbounded_p99_ms)
    claim("fig7: the two plans cross over",
          result.crossover_subscribers() is not None)


def _render(result: IntersectionResult) -> str:
    table = format_table(
        ["subscribers", "unbounded scan p99 (ms)", "bounded lookups p99 (ms)",
         "scan ops", "lookup ops"],
        _rows(result),
    )
    return (
        "Figure 7 — 99th-percentile response time of the subscriber "
        f"intersection query\n{table}\n"
        f"crossover at ~ {result.crossover_subscribers()} subscribers"
    )


EXPERIMENTS = (
    Experiment(
        name="fig7_intersection",
        config=IntersectionExperimentConfig(executions_per_point=120),
        quick=IntersectionExperimentConfig(
            storage_nodes=6, subscriber_counts=(0, 500, 2000),
            executions_per_point=30, fan_pool=2200,
        ),
        run=run,
        payload=lambda result: {
            "points": _rows(result),
            "crossover": result.crossover_subscribers(),
        },
        check=_check,
        render=_render,
    ),
)
