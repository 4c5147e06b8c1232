"""Figure 1, Figure 6 and the data-stop ablation (Section 5.1).

The three reproductions that need no experiment class of their own: each is
one analysis the library already provides, run at the paper's settings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..analysis import ScalingClassAnalysis, ScalingClassResult
from ..engine.database import PiqlDatabase
from ..kvstore.cluster import ClusterConfig
from ..plans import physical as P
from ..prediction.heatmap import Heatmap, thoughtstream_heatmap
from ..prediction.model import QueryLatencyModel
from ..prediction.slo import ServiceLevelObjective
from ..prediction.training import TrainingConfig, train_default_model
from ..schema.ddl import IndexColumn, IndexDefinition
from ..stats import nearest_rank_percentile
from ..workloads.scadr.data import ScadrDataConfig, ScadrDataGenerator
from ..workloads.scadr.queries import THOUGHTSTREAM
from ..workloads.scadr.schema import scadr_ddl
from .experiment import Experiment, claim
from .reporting import format_table


# ----------------------------------------------------------------------
# Figure 1 — query scaling classes
# ----------------------------------------------------------------------
# For representative Class I-IV queries over SCADr data: how does the data
# relevant to one query grow as the database grows, and does the PIQL
# optimizer admit exactly the Class I/II queries?
def _fig1_rows(result: ScalingClassResult) -> List[tuple]:
    return [
        (p.users, p.class1_constant, p.class2_bounded, p.class3_linear,
         p.class4_superlinear)
        for p in result.points
    ]


def _fig1_check(result: ScalingClassResult) -> None:
    growth = result.database_growth_factor()
    claim("fig1: class I data per query is constant",
          result.growth_factor("class1_constant") == 1.0)
    claim("fig1: class II data per query is bounded",
          result.growth_factor("class2_bounded") == 1.0)
    claim("fig1: class III data grows linearly with the database",
          growth * 0.3 < result.growth_factor("class3_linear") < growth * 3)
    claim("fig1: class IV data grows super-linearly",
          result.growth_factor("class4_superlinear") > growth * 2)
    accepted = result.accepted_by_piql
    claim("fig1: PIQL admits exactly the class I and II queries",
          accepted["class1_find_user"] and accepted["class2_thoughtstream"]
          and not accepted["class3_users_by_hometown"]
          and not accepted["class4_hometown_pairs"], accepted)


def _fig1_render(result: ScalingClassResult) -> str:
    table = format_table(
        ["users", "class I (constant)", "class II (bounded)",
         "class III (linear)", "class IV (super-linear)"],
        _fig1_rows(result),
    )
    return (
        "Figure 1 — relevant data touched per query as the database grows\n"
        f"{table}\nPIQL admissibility: {result.accepted_by_piql}"
    )


# ----------------------------------------------------------------------
# Figure 6 — predicted p99 heatmap for the thoughtstream query
# ----------------------------------------------------------------------
# The Performance Insight Assistant shows how the predicted 99th-percentile
# latency varies with the query's two cardinality knobs (subscriptions per
# user, records per page); the developer picks a pair that meets the SLO.
FIG6_SLO = ServiceLevelObjective(quantile=0.99, latency_seconds=0.5)


def _fig6_run(training: TrainingConfig) -> Heatmap:
    store = train_default_model(config=training)
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=10, seed=3))
    db.execute_ddl(scadr_ddl(max_subscriptions=500))
    # The default grid is the paper's: 100-500 subscriptions, 10-50 per page.
    return thoughtstream_heatmap(QueryLatencyModel(store, db.catalog))


def _fig6_check(heatmap: Heatmap) -> None:
    # Latency increases along both axes between the extreme settings.
    # (Adjacent cells may tie or jitter because the model conservatively
    # rounds each setting up to the next trained cardinality bucket, exactly
    # as described in Section 6.1.)
    claim("fig6: the largest setting is predicted slower than the smallest",
          heatmap.cell_ms(500, 50) > heatmap.cell_ms(100, 10))
    for page in (10, 50):
        claim("fig6: predicted latency grows with subscriptions per user",
              heatmap.cell_ms(500, page) > heatmap.cell_ms(100, page), page)
    for subscriptions in (100, 500):
        claim("fig6: predicted latency grows with records per page",
              heatmap.cell_ms(subscriptions, 50) > heatmap.cell_ms(subscriptions, 10),
              subscriptions)
    claim("fig6: the small-cardinality corner meets the 500 ms SLO",
          (100, 10) in heatmap.acceptable_settings(FIG6_SLO))


def _fig6_render(heatmap: Heatmap) -> str:
    acceptable = heatmap.acceptable_settings(FIG6_SLO)
    return (
        "Figure 6 — predicted 99th-percentile latency (ms) for thoughtstream\n"
        f"{heatmap.render()}\nsettings meeting the 500 ms SLO: "
        f"{len(acceptable)} of {len(heatmap.row_values) * len(heatmap.column_values)}"
    )


# ----------------------------------------------------------------------
# Ablation — what does the data-stop push-down buy? (Section 5.1)
# ----------------------------------------------------------------------
# The thoughtstream query's data-stop operator can be pushed past the
# ``approved = true`` predicate because that predicate did not cause it.
# The payoff is that the subscriptions access can use the *primary* index
# plus a local selection instead of an extra secondary index on (owner,
# approved, ...) that would be maintained on every write and dereferenced on
# every read.  The ablation runs the plan PIQL picks against that
# "index-covers-everything" alternative.
@dataclass(frozen=True)
class AblationConfig:
    users: int = 800
    executions: int = 300


@dataclass
class AblationResult:
    piql_latencies: List[float]
    ablated_latencies: List[float]
    #: Entries of the extra index the ablated plan has to maintain.
    index_entries: int

    def rows(self) -> List[tuple]:
        def row(label: str, latencies: List[float], entries: int) -> tuple:
            return (
                label,
                round(nearest_rank_percentile(latencies, 0.5) * 1000, 2),
                round(nearest_rank_percentile(latencies, 0.99) * 1000, 2),
                entries,
            )

        return [
            row("PIQL (primary index + local selection)", self.piql_latencies, 0),
            row("ablated (covering secondary index + dereference)",
                self.ablated_latencies, self.index_entries),
        ]


def _ablation_run(config: AblationConfig) -> AblationResult:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=10, seed=13))
    db.execute_ddl(scadr_ddl(max_subscriptions=10))
    generator = ScadrDataGenerator(
        ScadrDataConfig(
            users=config.users, thoughts_per_user=20, subscriptions_per_user=10
        )
    )
    generator.load(db)
    usernames = generator.usernames()
    rng = random.Random(5)
    prepared = db.prepare(THOUGHTSTREAM)

    # The PIQL plan: primary-index scan + local selection (no extra index).
    piql_latencies = [
        prepared.execute(uname=rng.choice(usernames)).latency_seconds
        for _ in range(config.executions)
    ]

    # Ablated alternative: a covering secondary index on (owner, approved)
    # must exist; the scan then reads index entries and dereferences them.
    index = IndexDefinition(
        name="idx_subscriptions_owner_approved",
        table="subscriptions",
        columns=(IndexColumn("owner"), IndexColumn("approved"),
                 IndexColumn("target")),
    )
    db.create_index(index)
    optimized = db.optimizer.optimize(THOUGHTSTREAM)
    scan = P.find_scans(optimized.physical_plan)[0]
    # Swap the driving scan (and drop the now-unnecessary local selection).
    join = next(
        op for op in P.walk(optimized.physical_plan)
        if isinstance(op, P.PhysicalSortedIndexJoin)
    )
    join.child = P.PhysicalIndexScan(
        relation_alias=scan.relation_alias,
        table=scan.table,
        index=P.IndexChoice(table="subscriptions", primary=False, definition=index),
        prefix=scan.prefix,
        ascending=True,
        limit_hint=None,
        data_stop=scan.data_stop,
        needs_dereference=True,
        scan_id="ablation",
    )
    ablated_latencies = [
        db.executor.execute_physical_plan(
            optimized.physical_plan, {"uname": rng.choice(usernames)}
        ).latency_seconds
        for _ in range(config.executions)
    ]
    return AblationResult(
        piql_latencies,
        ablated_latencies,
        db.cluster.namespace_size(index.namespace),
    )


def _ablation_check(result: AblationResult) -> None:
    claim("ablation: the alternative plan maintains an extra index",
          result.index_entries > 0)
    # The ablated plan pays an extra dereference round trip for the same
    # bounded amount of data.
    piql = nearest_rank_percentile(result.piql_latencies, 0.5)
    ablated = nearest_rank_percentile(result.ablated_latencies, 0.5)
    claim("ablation: the PIQL plan is at least as fast at the median",
          piql <= ablated, (piql, ablated))


def _ablation_render(result: AblationResult) -> str:
    table = format_table(
        ["plan", "median (ms)", "p99 (ms)", "extra index entries maintained"],
        result.rows(),
    )
    return (
        "Ablation — data-stop push-down (thoughtstream subscriptions access)\n"
        + table
    )


EXPERIMENTS = (
    Experiment(
        name="fig1_scaling_classes",
        config=(500, 1000, 2000, 4000, 8000),
        quick=(200, 400, 800),
        run=lambda user_counts: ScalingClassAnalysis(user_counts=user_counts).run(),
        payload=lambda result: {
            "points": _fig1_rows(result),
            "accepted_by_piql": result.accepted_by_piql,
        },
        check=_fig1_check,
        render=_fig1_render,
    ),
    Experiment(
        name="fig6_heatmap",
        config=TrainingConfig(intervals=10, samples_per_interval=16),
        quick=TrainingConfig(intervals=4, samples_per_interval=8),
        run=_fig6_run,
        payload=lambda heatmap: {
            "subscriptions": heatmap.row_values,
            "page_sizes": heatmap.column_values,
            "cells_ms": [
                [cell * 1000.0 for cell in row] for row in heatmap.cells_seconds
            ],
        },
        check=_fig6_check,
        render=_fig6_render,
    ),
    Experiment(
        name="ablation_datastop",
        config=AblationConfig(),
        quick=AblationConfig(users=200, executions=80),
        run=_ablation_run,
        payload=lambda result: {"rows": result.rows()},
        check=_ablation_check,
        render=_ablation_render,
    ),
)
