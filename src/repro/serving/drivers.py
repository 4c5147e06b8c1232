"""Load generators: fleets of application servers driving the cluster.

Two classic shapes of synthetic traffic, both replaying a
:class:`~repro.workloads.base.Workload` interaction mix (TPC-W's ordering
mix or SCADr's home-page render):

* **closed loop** — a fixed population of emulated application servers;
  each issues an interaction, waits for it to complete, thinks for an
  exponentially distributed pause, and repeats.  Throughput self-limits as
  latency grows (the paper's Section 8.4 harness is closed-loop).
* **open loop** — interactions arrive as a Poisson process at a configured
  rate regardless of how the system is doing, dispatched to the least-busy
  server of a fixed pool.  When the offered rate exceeds capacity the
  dispatch backlog grows and response times diverge — the regime where SLO
  violations, admission control, and autoscaling become visible.

Each emulated server is a ``PiqlDatabase.new_client`` view: shared cluster
and catalog, private clock and statistics.  Drivers run inside the
discrete-event kernel: a server's interaction advances its private clock,
and the driver schedules the server's next step at the simulated time that
clock reached, so all servers' requests interleave in global time order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..engine.database import PiqlDatabase
from ..errors import UnavailableError
from ..kvstore.simtime import SimClock
from ..obs.metrics import MetricsRegistry, counter_properties
from ..stats import nearest_rank_percentile
from ..workloads.base import Workload
from .admission import AdmissionController, AdmissionDecision
from .events import Simulation
from .monitor import SLOMonitor


@dataclass(frozen=True)
class RequestRecord:
    """One completed interaction as the serving tier saw it."""

    client_id: int
    name: str
    arrival_seconds: float
    start_seconds: float
    completion_seconds: float
    service_seconds: float
    #: Key/value operations the interaction issued (0 for legacy records).
    operations: int = 0
    #: Per-step operation counts, ``(label, operations)`` sorted by label —
    #: lets paired serial/pipelined experiments verify the work done per
    #: query is identical, only its latency composition differing.
    query_operations: Tuple[Tuple[str, int], ...] = ()

    @property
    def queue_wait_seconds(self) -> float:
        """Time between arrival and an application server picking it up."""
        return self.start_seconds - self.arrival_seconds

    @property
    def response_seconds(self) -> float:
        """End-to-end response time: dispatch wait + service."""
        return self.completion_seconds - self.arrival_seconds


class TrafficLog:
    """Everything that happened during one serving run.

    The scalar counters live on a :class:`~repro.obs.metrics.MetricsRegistry`
    under ``serving.*`` names and read as attributes: ``shed`` (requests
    turned away by admission control) and ``failed`` (interactions that
    errored because a replica quorum could not be met — a crashed node took
    the cluster below the consistency level).
    """

    __slots__ = ("records", "failures", "metrics")

    def __init__(self):
        self.records: List[RequestRecord] = []
        #: ``(time, interaction)`` of each failure, for timeline reports.
        self.failures: List[Tuple[float, str]] = []
        self.metrics = MetricsRegistry()

    @property
    def completed(self) -> int:
        return len(self.records)

    def record(self, record: RequestRecord) -> None:
        """Append a completed interaction, counting it for telemetry."""
        self.records.append(record)
        self.metrics.add("serving.completed")

    @property
    def availability(self) -> float:
        """Fraction of attempted interactions that completed successfully."""
        attempted = self.completed + self.failed
        return self.completed / attempted if attempted else 1.0

    def response_times(self) -> List[float]:
        return [record.response_seconds for record in self.records]

    def response_percentile(self, fraction: float) -> float:
        return nearest_rank_percentile(self.response_times(), fraction)


counter_properties(TrafficLog, "serving", (("shed", int), ("failed", int)))


def _observe_at_completion(
    sim: Simulation, monitor: Optional[SLOMonitor], record: RequestRecord
) -> None:
    """Deliver a response-time observation to the monitor *at completion*.

    Interactions execute atomically inside the event that starts them, so
    their completion lies in that event's future.  Scheduling the
    observation as its own event keeps the monitor's input in global time
    order (and an interaction still in flight when the run's horizon ends is
    correctly never observed).
    """
    if monitor is None:
        return
    sim.schedule_at(
        record.completion_seconds,
        lambda s: monitor.record(s.now, record.response_seconds),
        name="observe",
    )


def _observe_failure_at(
    sim: Simulation, monitor: Optional[SLOMonitor], when: float
) -> None:
    """Deliver a failed-interaction observation at the time it surfaced.

    Scheduled like :func:`_observe_at_completion` so the monitor's input
    stays in global time order; the failure counts against the error
    budget without contributing a response time.
    """
    if monitor is None:
        return
    sim.schedule_at(
        when, lambda s: monitor.record_failure(s.now), name="observe-failure"
    )


class AppServer:
    """One emulated application server (a `new_client` view + its clock).

    With ``pipelined=True`` the server replays each interaction's plan
    through an asynchronous session, so the independent queries of a stage
    overlap in simulated time (max instead of sum) and duplicate point
    reads across them coalesce; the workload must implement
    ``interaction_plan``.  The default replays interactions serially — the
    classic blocking client.
    """

    def __init__(self, db: PiqlDatabase, client_id: int, pipelined: bool = False):
        # The kernel owns this clock and hands it to the database view, so
        # the server's whole timeline (queries, idle gaps) lives on a clock
        # the driver can read and advance.
        self.clock = SimClock()
        self.db = db.new_client(clock=self.clock)
        self.client_id = client_id
        self.pipelined = pipelined
        self.session = self.db.session() if pipelined else None

    @property
    def free_at(self) -> float:
        """Simulated time at which this server finishes its current work."""
        return self.clock.now

    def run_interaction(self, workload: Workload, rng: random.Random, at: float):
        """Run one interaction starting no earlier than ``at``.

        Advances the server's private clock to ``at`` first (idle time), then
        lets the workload execute against this server's database view; the
        clock ends at the interaction's completion time.
        """
        if self.clock.now < at:
            self.clock.advance(at - self.clock.now)
        if self.pipelined:
            plan = workload.interaction_plan(self.db, rng)
            return workload.run_plan(self.db, plan, session=self.session)
        return workload.interaction(self.db, rng)


class ClosedLoopDriver:
    """A fixed population of think-time clients (one server each)."""

    def __init__(
        self,
        sim: Simulation,
        db: PiqlDatabase,
        workload: Workload,
        clients: int = 50,
        think_time_seconds: float = 1.0,
        seed: int = 0,
        monitor: Optional[SLOMonitor] = None,
        admission: Optional[AdmissionController] = None,
        log: Optional[TrafficLog] = None,
        pipelined: bool = False,
    ):
        if clients < 1:
            raise ValueError("need at least one client")
        if think_time_seconds < 0:
            raise ValueError("think time must be non-negative")
        self.sim = sim
        self.workload = workload
        self.think_time_seconds = think_time_seconds
        self.monitor = monitor
        self.admission = admission
        self.log = log if log is not None else TrafficLog()
        self.servers = [AppServer(db, client_id, pipelined=pipelined)
                        for client_id in range(clients)]
        self._rngs = [random.Random((seed, i).__hash__() & 0x7FFFFFFF)
                      for i in range(clients)]

    def _think(self, rng: random.Random) -> float:
        if self.think_time_seconds == 0:
            return 0.0
        return rng.expovariate(1.0 / self.think_time_seconds)

    def start(self) -> None:
        """Stagger each client's first request across one think time."""
        for server, rng in zip(self.servers, self._rngs):
            offset = rng.uniform(0.0, self.think_time_seconds) \
                if self.think_time_seconds > 0 else 0.0
            self.sim.schedule_at(
                self.sim.now + offset,
                self._make_tick(server, rng),
                name=f"closed-client-{server.client_id}",
            )

    def _make_tick(self, server: AppServer, rng: random.Random):
        def tick(sim: Simulation) -> None:
            arrival = sim.now
            if self.admission is not None:
                decision = self.admission.decide(arrival)
                if decision is AdmissionDecision.SHED:
                    # The client backs off a full think time and retries.
                    self.log.metrics.add("serving.shed")
                    sim.schedule_at(
                        arrival + max(self._think(rng), 1e-3), tick,
                        name=f"closed-client-{server.client_id}",
                    )
                    return
            try:
                result = server.run_interaction(self.workload, rng, arrival)
            except UnavailableError as exc:
                # A replica quorum could not be met mid-interaction.  The
                # work already charged stays on the server's clock; the
                # client backs off a think time and tries a fresh one.
                self.log.metrics.add("serving.failed")
                self.log.failures.append((arrival, type(exc).__name__))
                _observe_failure_at(
                    sim, self.monitor, max(server.free_at, arrival)
                )
                sim.schedule_at(
                    max(server.free_at, arrival) + max(self._think(rng), 1e-3),
                    tick,
                    name=f"closed-client-{server.client_id}",
                )
                return
            completion = server.free_at
            record = RequestRecord(
                client_id=server.client_id,
                name=result.name,
                arrival_seconds=arrival,
                start_seconds=arrival,
                completion_seconds=completion,
                service_seconds=result.latency_seconds,
                operations=result.operations,
                query_operations=tuple(sorted(result.query_operations.items())),
            )
            self.log.record(record)
            _observe_at_completion(sim, self.monitor, record)
            sim.schedule_at(
                completion + self._think(rng), tick,
                name=f"closed-client-{server.client_id}",
            )

        return tick


class OpenLoopDriver:
    """Poisson arrivals dispatched to a pool of application servers."""

    def __init__(
        self,
        sim: Simulation,
        db: PiqlDatabase,
        workload: Workload,
        arrival_rate_per_second: float,
        servers: int = 50,
        seed: int = 0,
        monitor: Optional[SLOMonitor] = None,
        admission: Optional[AdmissionController] = None,
        log: Optional[TrafficLog] = None,
        pipelined: bool = False,
    ):
        if arrival_rate_per_second <= 0:
            raise ValueError("arrival rate must be positive")
        if servers < 1:
            raise ValueError("need at least one server")
        self.sim = sim
        self.workload = workload
        self.arrival_rate_per_second = arrival_rate_per_second
        self.monitor = monitor
        self.admission = admission
        self.log = log if log is not None else TrafficLog()
        self.servers = [AppServer(db, client_id, pipelined=pipelined)
                        for client_id in range(servers)]
        self._rng = random.Random(seed)

    def set_rate(self, arrival_rate_per_second: float) -> None:
        """Change the offered rate mid-run (traffic surges in scenarios)."""
        if arrival_rate_per_second <= 0:
            raise ValueError("arrival rate must be positive")
        self.arrival_rate_per_second = arrival_rate_per_second

    def start(self) -> None:
        self.sim.schedule_at(
            self.sim.now + self._rng.expovariate(self.arrival_rate_per_second),
            self._arrival,
            name="open-arrival",
        )

    def _arrival(self, sim: Simulation) -> None:
        arrival = sim.now
        # Perpetuate the arrival process first so shedding never stops it.
        sim.schedule_at(
            arrival + self._rng.expovariate(self.arrival_rate_per_second),
            self._arrival,
            name="open-arrival",
        )
        server = min(self.servers, key=lambda s: (s.free_at, s.client_id))
        backlog = max(0.0, server.free_at - arrival)
        if self.admission is not None:
            decision = self.admission.decide(arrival, backlog_seconds=backlog)
            if decision is AdmissionDecision.SHED:
                self.log.metrics.add("serving.shed")
                return
        start = max(arrival, server.free_at)
        try:
            result = server.run_interaction(self.workload, self._rng, start)
        except UnavailableError as exc:
            self.log.metrics.add("serving.failed")
            self.log.failures.append((arrival, type(exc).__name__))
            _observe_failure_at(sim, self.monitor, max(server.free_at, start))
            return
        record = RequestRecord(
            client_id=server.client_id,
            name=result.name,
            arrival_seconds=arrival,
            start_seconds=start,
            completion_seconds=server.free_at,
            service_seconds=result.latency_seconds,
            operations=result.operations,
            query_operations=tuple(sorted(result.query_operations.items())),
        )
        self.log.record(record)
        _observe_at_completion(sim, self.monitor, record)
