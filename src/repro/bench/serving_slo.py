"""Serving tier: SLO violation under a traffic surge, then recovery.

Not a figure from the paper but the serving-tier scenario its SLO
methodology implies (Sections 6.2/6.3 applied to a running system) — a
site whose traffic suddenly outgrows its provisioned capacity:

* **normal** phase: open-loop TPC-W traffic well under cluster capacity;
  the SLO holds comfortably.
* **surge** phase: the arrival rate jumps past what the storage nodes can
  absorb; dispatch backlogs and per-node queues build and the observed SLO
  quantile blows through the objective.
* **recovery** phase: traffic returns to normal and the backlog drains.

The experiment runs the scenario twice — once with the admission controller
disabled (every request is accepted and the p99 diverges) and once enabled
(a fraction of requests is shed, the requests that are admitted stay close
to the objective and return to compliance within one SLO interval of the
surge ending) — and reports per-phase and per-SLO-window summaries, the
shape of Figures 8–11 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from ..prediction.slo import ServiceLevelObjective
from ..serving.simulator import ServingReport, ServingSimulation
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import PhaseSummary, loaded_database, serve, summarise_phases


#: Open-loop arrival rates (requests per second) outside and during the
#: surge; the surge is well past what the storage nodes absorb.
NORMAL_RATE_PER_SECOND = 40.0
SURGE_RATE_PER_SECOND = 200.0
#: Length of the recovery phase after the surge ends.
RECOVERY_SECONDS = 10.0
#: The cluster and its open-loop application servers at either size, the
#: SLO judged, and the seed.
STORAGE_NODES = 4
NODE_CAPACITY_OPS_PER_SECOND = 400.0
CLIENTS = 50
SLO = ServiceLevelObjective(
    quantile=0.99, latency_seconds=0.1, interval_seconds=5.0
)
SEED = 7


@dataclass(frozen=True)
class ServingSloConfig:
    """Workload size and phase lengths of the surge scenario; the cluster,
    SLO and seed are the module's constants."""

    users_per_node: int = 30
    items_total: int = 100
    normal_seconds: float = 10.0
    surge_seconds: float = 10.0

    @property
    def duration_seconds(self) -> float:
        return self.normal_seconds + self.surge_seconds + RECOVERY_SECONDS

    def phases(self) -> List[Tuple[str, float, float]]:
        """(name, start, end) of each traffic phase."""
        surge_start = self.normal_seconds
        surge_end = surge_start + self.surge_seconds
        return [
            ("normal", 0.0, surge_start),
            ("surge", surge_start, surge_end),
            ("recovery", surge_end, self.duration_seconds),
        ]

    def quick(self) -> "ServingSloConfig":
        """A CI-smoke-sized variant: same rates, a smaller data set.

        Its surge is longer than the full run's: on the small data set the
        nodes absorb a short surge (since buy-confirm writes its lines in
        one batched write, a 5 s surge kept 88% of requests inside the
        SLO), so the backlog needs 14 s to build past the objective.
        """
        return replace(
            self, users_per_node=10, items_total=50,
            normal_seconds=5.0, surge_seconds=14.0,
        )


@dataclass
class ServingSloResult:
    """Reports and per-phase summaries for both runs of the scenario."""

    config: ServingSloConfig
    reports: Dict[str, ServingReport]
    phase_summaries: Dict[str, List[PhaseSummary]]

    def phase(self, run: str, name: str) -> PhaseSummary:
        return next(s for s in self.phase_summaries[run] if s.phase == name)

    def summary_payload(self) -> Dict:
        return {
            label: [summary.__dict__ for summary in summaries]
            for label, summaries in self.phase_summaries.items()
        }


def run_variant(config: ServingSloConfig, admission_enabled: bool) -> ServingReport:
    """Run the three-phase scenario once (fresh database per variant)."""
    db, workload = loaded_database(
        TpcwWorkload(),
        storage_nodes=STORAGE_NODES,
        node_capacity_ops_per_second=NODE_CAPACITY_OPS_PER_SECOND,
        users_per_node=config.users_per_node,
        items_total=config.items_total,
        seed=SEED,
    )
    (_, surge_start, surge_end) = config.phases()[1]

    def schedule_surge(simulation: ServingSimulation) -> None:
        driver = simulation.driver
        simulation.sim.schedule_at(
            surge_start,
            lambda _sim: driver.set_rate(SURGE_RATE_PER_SECOND),
            name="surge-begins",
        )
        simulation.sim.schedule_at(
            surge_end,
            lambda _sim: driver.set_rate(NORMAL_RATE_PER_SECOND),
            name="surge-ends",
        )

    return serve(
        db,
        workload,
        before_run=schedule_surge,
        mode="open",
        clients=CLIENTS,
        arrival_rate_per_second=NORMAL_RATE_PER_SECOND,
        duration_seconds=config.duration_seconds,
        slo=SLO,
        admission=admission_enabled,
        seed=SEED,
    ).report


def run(config: ServingSloConfig) -> ServingSloResult:
    reports = {
        label: run_variant(config, admission)
        for label, admission in (("no_admission", False), ("admission", True))
    }
    return ServingSloResult(
        config=config,
        reports=reports,
        phase_summaries={
            label: summarise_phases(report, config.phases(), SLO)
            for label, report in reports.items()
        },
    )


def check(result: ServingSloResult) -> None:
    claim("serving_slo: both runs start healthy",
          result.phase("no_admission", "normal").compliance > 0.95
          and result.phase("admission", "normal").compliance > 0.95)
    surge_without = result.phase("no_admission", "surge").compliance
    surge_with = result.phase("admission", "surge").compliance
    claim("serving_slo: the surge violates the SLO when every request is accepted",
          surge_without < 0.5
          and any(w.violated for w in result.reports["no_admission"].windows),
          surge_without)
    claim("serving_slo: the admission controller sheds load",
          result.reports["admission"].admission.shed > 0)
    claim("serving_slo: shedding restores compliance for the admitted requests",
          surge_with > surge_without + 0.3, (surge_with, surge_without))
    claim("serving_slo: the admitted requests recover once the surge ends",
          result.phase("admission", "recovery").compliance > 0.95)


EXPERIMENTS = (
    Experiment(
        name="serving_slo",
        config=ServingSloConfig(),
        quick=ServingSloConfig().quick(),
        run=run,
        payload=ServingSloResult.summary_payload,
        check=check,
    ),
)
