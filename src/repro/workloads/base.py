"""Common infrastructure shared by the TPC-W and SCADr benchmark workloads.

Interactions are modelled as small **DAGs of query steps**: an
:class:`InteractionPlan` is a sequence of *stages*, each stage a set of
steps that are independent of one another (they may only depend on results
of earlier stages).  The same plan can be replayed two ways:

* **serially** (:meth:`Workload.run_plan` with no session) — steps execute
  one after another and their latencies add, the behaviour of the classic
  blocking client API;
* **pipelined** (``run_plan(db, plan, session=...)``) — the steps of a
  stage are submitted to an asynchronous
  :class:`~repro.engine.session.Session` and gathered, so each stage costs
  the *maximum* of its branches instead of the sum, and duplicate point
  reads across branches coalesce.

Both replays issue exactly the same queries with exactly the same
parameters, so per-query operation counts (and the static bounds backing
them) are identical — only the latency composition changes.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..engine.database import PiqlDatabase
from ..engine.session import CallOutcome, Session


@dataclass
class InteractionResult:
    """Cost of one simulated web interaction (one "page render")."""

    name: str
    latency_seconds: float
    operations: int
    #: Physical RPC batches the interaction issued, and how many of those
    #: were base-record dereference rounds.  Unlike ``operations`` (logical
    #: work, identical across executor configurations) these measure round
    #: structure — the quantity the operator-fusion benchmark compares.
    rpcs: int = 0
    dereference_rounds: int = 0
    query_latencies: Dict[str, float] = field(default_factory=dict)
    #: Key/value operations issued by each step, keyed like
    #: ``query_latencies``.  Serial and pipelined replays of the same plan
    #: produce identical values here (pipelining changes latency
    #: composition, never the work done).
    query_operations: Dict[str, int] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1000.0


@dataclass
class WorkloadScale:
    """How much data to load, expressed per storage node as in the paper.

    The paper keeps the amount of data per server constant while varying the
    number of servers (Section 8.4); the generators multiply the per-node
    quantities by the cluster size.  The default per-node quantities are
    scaled down from the paper's (60,000 SCADr users per node, 75 emulated
    browsers of TPC-W data per node) so experiments complete quickly in the
    simulator; the scaling *shape* does not depend on the absolute sizes.
    """

    storage_nodes: int = 10
    users_per_node: int = 200
    items_total: int = 1000
    seed: int = 42


# ----------------------------------------------------------------------
# Interaction DAGs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryStep:
    """One named read query of an interaction (independent within its stage)."""

    label: str
    sql: str
    parameters: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class WriteStep:
    """One block of writes of an interaction.

    ``write(db, results)`` receives the database view and the results of
    every already-completed step (label -> result object with ``.rows`` for
    query steps), and performs its writes through the normal DML API.
    """

    label: str
    write: Callable[[PiqlDatabase, Dict[str, object]], None]


Step = Union[QueryStep, WriteStep]
#: A stage is either a literal list of steps, or a callable evaluated when
#: the stage is reached — ``builder(db, results) -> steps`` — for stages
#: whose steps depend on earlier results (e.g. TPC-W buy-confirm writes the
#: order lines it just read from the cart).
StageSpec = Union[Sequence[Step], Callable[[PiqlDatabase, Dict[str, object]], Sequence[Step]]]


@dataclass
class InteractionPlan:
    """One web interaction as sequential stages of independent steps."""

    name: str
    stages: List[StageSpec]


class Workload(abc.ABC):
    """A benchmark: schema + data generator + interaction mix."""

    #: Human-readable benchmark name ("TPC-W" or "SCADr").
    name: str = "workload"

    @abc.abstractmethod
    def setup(self, db: PiqlDatabase, scale: WorkloadScale) -> None:
        """Create the schema and bulk load data sized for ``scale``."""

    @abc.abstractmethod
    def query_names(self) -> List[str]:
        """Names of the read queries (the rows of Table 1)."""

    @abc.abstractmethod
    def query_sql(self, name: str) -> str:
        """The PIQL text of one named query."""

    @abc.abstractmethod
    def sample_parameters(self, name: str, rng: random.Random) -> Dict[str, object]:
        """Random parameter bindings for one named query."""

    # ------------------------------------------------------------------
    # Interactions
    # ------------------------------------------------------------------
    def interaction_plan(
        self, db: PiqlDatabase, rng: random.Random
    ) -> InteractionPlan:
        """Sample one web interaction as a DAG of query steps.

        Workloads that model their interactions as plans implement this;
        drivers running in pipelined mode replay the plan through a session
        so independent steps overlap.  The default raises — a workload that
        only overrides :meth:`interaction` cannot be pipelined.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not model its interactions as plans"
        )

    def interaction(
        self, db: PiqlDatabase, rng: random.Random
    ) -> InteractionResult:
        """Run one web interaction serially and report its cost.

        Default implementation: sample a plan and replay it without a
        session (stage latencies add) — the classic blocking behaviour.
        """
        return self.run_plan(db, self.interaction_plan(db, rng))

    def run_plan(
        self,
        db: PiqlDatabase,
        plan: InteractionPlan,
        session: Optional[Session] = None,
    ) -> InteractionResult:
        """Replay one interaction plan, serially or through a session.

        With ``session=None`` every step executes sequentially on the view's
        clock.  With a session, stages of two or more steps are submitted
        and gathered so the stage costs the max of its branches; single-step
        stages take the inline path either way (identical charging).

        The steps of one stage are independent *by contract*: ``results``
        exposes only the results of earlier stages to a stage's steps and
        stage builders, identically in both replay modes (query steps yield
        an object with ``.rows``; write steps yield ``None``).
        """
        client = db.client
        started = client.clock.now
        operations_before = client.stats.operations
        rpcs_before = client.stats.rpcs
        rounds_before = client.stats.dereference_rounds
        results: Dict[str, object] = {}
        query_latencies: Dict[str, float] = {}
        query_operations: Dict[str, int] = {}

        for stage in plan.stages:
            steps = list(stage(db, results) if callable(stage) else stage)
            stage_results: Dict[str, object] = {}
            if session is not None and len(steps) > 1:
                futures = [self._submit_step(session, db, step, results)
                           for step in steps]
                session.gather(*futures)
                for step, future in zip(steps, futures):
                    value = future.result()
                    stage_results[step.label] = (
                        None if isinstance(step, WriteStep) else value
                    )
                    query_latencies[step.label] = future.latency_seconds
                    query_operations[step.label] = future.operations
            else:
                for step in steps:
                    value, latency, operations = self._run_step(db, step, results)
                    stage_results[step.label] = value
                    query_latencies[step.label] = latency
                    query_operations[step.label] = operations
            # Merge only once the stage completes, so same-stage siblings are
            # invisible to one another in the serial replay exactly as they
            # are in the pipelined one.
            results.update(stage_results)

        return InteractionResult(
            name=plan.name,
            latency_seconds=client.clock.now - started,
            operations=client.stats.operations - operations_before,
            rpcs=client.stats.rpcs - rpcs_before,
            dereference_rounds=client.stats.dereference_rounds - rounds_before,
            query_latencies=query_latencies,
            query_operations=query_operations,
        )

    @staticmethod
    def _submit_step(
        session: Session,
        db: PiqlDatabase,
        step: Step,
        results: Dict[str, object],
    ):
        if isinstance(step, QueryStep):
            return session.submit(
                db.prepare(step.sql), step.parameters, label=step.label
            )
        return session.call(
            lambda view, step=step: step.write(view, results), label=step.label
        )

    @staticmethod
    def _run_step(db: PiqlDatabase, step: Step, results: Dict[str, object]):
        """Execute one step inline; returns ``(result, latency, operations)``."""
        if isinstance(step, QueryStep):
            result = db.prepare(step.sql).execute(step.parameters)
            return result, result.latency_seconds, result.operations
        outcome = CallOutcome.measure(db, lambda view: step.write(view, results))
        return None, outcome.latency_seconds, outcome.operations

    # ------------------------------------------------------------------
    # Convenience helpers shared by the harness
    # ------------------------------------------------------------------
    def run_query(
        self,
        db: PiqlDatabase,
        name: str,
        rng: random.Random,
    ):
        """Execute one named query with random parameters."""
        prepared = db.prepare(self.query_sql(name))
        return prepared.execute(self.sample_parameters(name, rng))

    def prepare_all(self, db: PiqlDatabase) -> None:
        """Compile every query (and create required indexes) ahead of time."""
        for name in self.query_names():
            db.prepare(self.query_sql(name))
