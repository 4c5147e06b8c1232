"""End-to-end serving simulation: traffic, contention, and control loops.

:class:`ServingSimulation` wires the pieces of the serving tier together
over an already-loaded :class:`~repro.engine.database.PiqlDatabase`:

1. installs per-node request queues on the cluster (queue-aware latency),
2. builds an :class:`~repro.serving.monitor.SLOMonitor` for the configured
   objective,
3. optionally an admission controller and/or autoscaler,
4. a closed- or open-loop driver replaying the workload's interaction mix,
5. a periodic **control tick** that feeds measured per-node arrival rates
   back into node utilisation, steps the admission controller, and lets the
   autoscaler act,

then runs the discrete-event kernel for a configured amount of simulated
time and returns a :class:`ServingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..engine.database import PiqlDatabase
from ..obs.drift import PredictionDriftDetector
from ..obs.flightrec import ForensicsConfig
from ..obs.incident import IncidentReport, LatencyForensics
from ..obs.slo import BurnRateAlerter, BurnRateRule
from ..obs.telemetry import FleetTelemetry, TelemetryCollector
from ..obs.timeseries import TimeSeriesStore
from ..prediction.slo import ServiceLevelObjective
from ..replication.faults import FaultEvent, FaultInjector, FaultSpec
from ..replication.manager import RepairReport
from ..workloads.base import Workload
from .admission import AdmissionController, AdmissionCounters
from .autoscale import AutoscaleConfig, Autoscaler, ScalingAction
from .drivers import ClosedLoopDriver, OpenLoopDriver, TrafficLog
from .events import Simulation
from .monitor import SLOMonitor, WindowReport
from .queueing import install_queues, refresh_utilization, remove_queues


#: Period of the control tick (admission, autoscaling, forensics polling).
CONTROL_INTERVAL_SECONDS = 0.5
#: Period of the telemetry scrape loop, and the resolution of the
#: time-series store the scrapes land in.
TELEMETRY_INTERVAL_SECONDS = 0.5
#: How often the event kernel runs background storage-engine maintenance
#: (LSM compaction).  Only scheduled when the cluster has at least one
#: durable engine; the in-memory dict engine never needs it and pays
#: nothing.
ENGINE_MAINTENANCE_INTERVAL_SECONDS = 0.25


@dataclass
class ServingConfig:
    """Shape and duration of one serving simulation."""

    #: "closed" (think-time population) or "open" (Poisson arrivals).
    mode: str = "closed"
    clients: int = 50
    think_time_seconds: float = 1.0
    #: Only used in open mode.
    arrival_rate_per_second: float = 50.0
    duration_seconds: float = 30.0
    slo: ServiceLevelObjective = field(
        default_factory=lambda: ServiceLevelObjective(
            quantile=0.99, latency_seconds=0.5, interval_seconds=10.0
        )
    )
    #: Admission control: shed load when the SLO is violated.
    admission: bool = False
    #: Autoscaling: add/remove storage nodes by utilisation (``None``: off).
    autoscale: Optional[AutoscaleConfig] = None
    #: Failure timeline: crash / recover / slow / restore events applied to
    #: storage nodes through the event kernel mid-run.
    faults: Sequence[FaultSpec] = ()
    #: Replay interactions through asynchronous sessions: the independent
    #: queries of each interaction-plan stage overlap in simulated time
    #: (requires the workload to implement ``interaction_plan``).
    pipelined: bool = False
    #: Bound-auditor policy for the run.  By default the shared auditor is
    #: flipped to ``serving`` mode — a query exceeding its static bound is
    #: recorded (``ServingReport.bound_violations``), but the request
    #: completes (a live service degrades observably rather than
    #: crashing).  With ``strict_audit=True`` the auditor keeps strict mode
    #: and violations raise mid-run (CI smoke jobs use this).
    strict_audit: bool = False
    #: Fleet telemetry: when enabled the run scrapes cluster/node/SLO state
    #: into a time-series store every :data:`TELEMETRY_INTERVAL_SECONDS`, runs
    #: the burn-rate alerter after each scrape, and — when the shared
    #: auditor carries a latency model — feeds the prediction-drift
    #: detector.  The assembled bundle lands on ``ServingReport.telemetry``.
    telemetry_enabled: bool = False
    #: Burn-rate rule ladder; ``None`` uses :data:`~repro.obs.slo.DEFAULT_RULES`.
    burn_rules: Optional[Sequence[BurnRateRule]] = None
    #: Latency forensics: when set, the run enables tracing on the
    #: database unless the caller already did (app servers inherit it;
    #: tracing turned on here keeps no finished root), attaches a
    #: tail-based flight recorder + critical-path aggregator to the
    #: shared auditor, polls breaker transitions from the control tick,
    #: and pre-registers the configured fault timeline as trace-retention
    #: windows.  The bundle lands on ``ServingReport.forensics``.
    forensics: Optional[ForensicsConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open'")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")


@dataclass
class ServingReport:
    """Everything a scenario needs to judge one serving run."""

    duration_seconds: float
    log: TrafficLog
    windows: List[WindowReport]
    overall_compliance: float
    admission: Optional[AdmissionCounters]
    scaling_actions: List[ScalingAction]
    final_nodes: int
    mean_utilization: float
    #: Failure timeline as applied (empty when no faults were configured).
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: Aggregate anti-entropy work done by recoveries during the run.
    repair: Optional[RepairReport] = None
    #: Queries the runtime bound auditor checked during the run.
    audited: int = 0
    #: Static-bound violations the auditor observed (should be zero).
    bound_violations: int = 0
    #: The run's telemetry bundle (``None`` unless telemetry was enabled).
    telemetry: Optional[FleetTelemetry] = None
    #: The run's forensics bundle (``None`` unless forensics was enabled).
    forensics: Optional[LatencyForensics] = None

    def incident_report(
        self, title: str = "serving run", grace_seconds: float = 2.0
    ) -> IncidentReport:
        """Correlate this run's faults/breakers/alerts/traces (requires
        ``ServingConfig.forensics``)."""
        if self.forensics is None:
            raise ValueError(
                "forensics was not enabled for this run "
                "(set ServingConfig.forensics)"
            )
        alerts = self.telemetry.alerts if self.telemetry is not None else []
        drift_reports = []
        if self.telemetry is not None and self.telemetry.drift is not None:
            drift_reports = self.telemetry.drift.report()
        return self.forensics.incident_report(
            title,
            self.duration_seconds,
            fault_events=self.fault_events,
            alerts=alerts,
            drift_reports=drift_reports,
            grace_seconds=grace_seconds,
        )

    def dashboard(self, width: int = 72) -> str:
        """The rendered fleet dashboard (requires telemetry_enabled)."""
        if self.telemetry is None:
            raise ValueError(
                "telemetry was not enabled for this run "
                "(set ServingConfig.telemetry_enabled)"
            )
        return self.telemetry.dashboard(width=width)

    @property
    def completed(self) -> int:
        return self.log.completed

    @property
    def failed(self) -> int:
        return self.log.failed

    @property
    def availability(self) -> float:
        """Fraction of attempted interactions that completed successfully."""
        return self.log.availability

    @property
    def throughput(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.log.completed / self.duration_seconds

    def response_percentile_ms(self, fraction: float) -> float:
        return self.log.response_percentile(fraction) * 1000.0


class ServingSimulation:
    """One configured serving run over an already-loaded database."""

    def __init__(self, db: PiqlDatabase, workload: Workload, config: ServingConfig):
        self.db = db
        self.config = config
        self.sim = Simulation()
        install_queues(db.cluster)
        self.monitor = SLOMonitor(config.slo)
        self.admission: Optional[AdmissionController] = None
        if config.admission:
            self.admission = AdmissionController(self.monitor)
        self.autoscaler: Optional[Autoscaler] = None
        if config.autoscale is not None:
            self.autoscaler = Autoscaler(db.cluster, config.autoscale)
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults:
            self.fault_injector = FaultInjector(db.cluster)
        self.telemetry: Optional[FleetTelemetry] = None
        if config.telemetry_enabled:
            store = TimeSeriesStore(resolution_seconds=TELEMETRY_INTERVAL_SECONDS)
            alerter = BurnRateAlerter(
                store,
                config.slo,
                rules=config.burn_rules,
                admission=self.admission,
            )
            drift = None
            if db.auditor.latency_model is not None:
                drift = PredictionDriftDetector(db.auditor.latency_model)
            collector = TelemetryCollector(
                store,
                cluster=db.cluster,
                monitor=self.monitor,
                admission=self.admission,
                registries_fn=self._server_registries,
                alerter=alerter,
                breakers_fn=self._breaker_boards,
            )
            self.telemetry = FleetTelemetry(store, collector, alerter, drift)
        self.forensics: Optional[LatencyForensics] = None
        if config.forensics is not None:
            # Tracing must be live before the driver builds its app-server
            # clients — ``new_client`` views inherit the parent's tracer
            # state at construction.  The views keep no finished root: the
            # flight recorder is the one place a trace outlives its query.
            if db.tracer is None:
                db.enable_tracing(keep=0)
            forensics_drift = (
                self.telemetry.drift if self.telemetry is not None else None
            )
            if forensics_drift is None and db.auditor.latency_model is not None:
                # Envelope prediction alone (no residual feed needed), so a
                # private detector works even without telemetry.
                forensics_drift = PredictionDriftDetector(
                    db.auditor.latency_model
                )
            self.forensics = LatencyForensics(
                config.forensics,
                drift=forensics_drift,
                tracers_fn=self._server_tracers,
            )
            self.forensics.register_fault_windows(
                config.faults, config.duration_seconds
            )
        self.log = TrafficLog()
        if config.mode == "closed":
            self.driver = ClosedLoopDriver(
                self.sim,
                db,
                workload,
                clients=config.clients,
                think_time_seconds=config.think_time_seconds,
                seed=config.seed,
                monitor=self.monitor,
                admission=self.admission,
                log=self.log,
                pipelined=config.pipelined,
            )
        else:
            self.driver = OpenLoopDriver(
                self.sim,
                db,
                workload,
                arrival_rate_per_second=config.arrival_rate_per_second,
                servers=config.clients,
                seed=config.seed,
                monitor=self.monitor,
                admission=self.admission,
                log=self.log,
                pipelined=config.pipelined,
            )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _server_registries(self):
        """The live metric registries rolled up each scrape: the traffic
        log's ``serving.*`` counters plus every app server's client stats
        (``client.*``, ``views.deltas.*``)."""
        registries = [self.log.metrics]
        registries.extend(
            server.db.client.stats.metrics for server in self.driver.servers
        )
        return registries

    def _server_tracers(self):
        """Every app server's tracer, resolved per call like
        :meth:`_server_registries`: the views build every span of a run
        with forensics, so their evictions are the fleet's dropped roots."""
        return [server.db.tracer for server in self.driver.servers]

    def _breaker_boards(self):
        """Every app server's live circuit-breaker board (if any).

        Resolved through the drivers each call so autoscaled fleets stay
        covered; empty when resilience breakers are not enabled.
        """
        boards = []
        for server in self.driver.servers:
            board = getattr(server.db.client, "breakers", None)
            if board is not None:
                boards.append(board)
        return boards

    def _control_tick(self, sim: Simulation) -> None:
        now = sim.now
        refresh_utilization(self.db.cluster, now)
        if self.admission is not None:
            self.admission.update(now)
        if self.autoscaler is not None:
            self.autoscaler.evaluate(now)
        if self.forensics is not None:
            self.forensics.tick(
                now,
                boards=self._breaker_boards(),
                store=(
                    self.telemetry.store
                    if self.telemetry is not None
                    else None
                ),
            )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self) -> ServingReport:
        """Run the scenario for ``duration_seconds`` of simulated time."""
        # The auditor is shared by every app-server view (`new_client`), so
        # flipping its policy here covers the whole fleet.  Its hooks are
        # restored afterwards: the database may host tests or further
        # scenarios with different policies.
        auditor = self.db.auditor
        audited_before = auditor.audited
        violations_before = auditor.violations
        saved_mode = auditor.mode
        saved_drift = auditor.drift
        saved_recorder = auditor.recorder
        if not self.config.strict_audit:
            auditor.mode = "serving"
        if self.telemetry is not None and self.telemetry.drift is not None:
            auditor.drift = self.telemetry.drift
        if self.forensics is not None:
            auditor.recorder = self.forensics.recorder
        try:
            self.driver.start()
            if self.fault_injector is not None:
                self.fault_injector.schedule(self.sim, self.config.faults)
            horizon = self.config.duration_seconds
            self.sim.every(
                CONTROL_INTERVAL_SECONDS, horizon, self._control_tick,
                "control-tick",
            )
            if any(
                engine.durable
                for engine in self.db.cluster.engines.values()
            ):
                self.sim.every(
                    ENGINE_MAINTENANCE_INTERVAL_SECONDS, horizon,
                    lambda _sim: self.db.cluster.run_engine_maintenance(),
                    "engine-maintenance",
                )
            if self.telemetry is not None:
                self.telemetry.collector.schedule(
                    self.sim, TELEMETRY_INTERVAL_SECONDS, horizon
                )
            self.sim.run(until=horizon)
            if self.telemetry is not None:
                # One closing scrape so the artifact covers the very end of
                # the run (the loop stops short of the horizon).
                self.telemetry.collector.scrape(self.sim.now)
            if self.forensics is not None:
                # Closing forensics tick (final breaker diff + gauge
                # scrape), then close any still-open breaker windows.
                self.forensics.tick(
                    self.sim.now,
                    boards=self._breaker_boards(),
                    store=(
                        self.telemetry.store
                        if self.telemetry is not None
                        else None
                    ),
                )
                self.forensics.finalize(self.sim.now)
        finally:
            auditor.mode = saved_mode
            auditor.drift = saved_drift
            auditor.recorder = saved_recorder
        mean_utilization = refresh_utilization(self.db.cluster, self.sim.now)
        windows = list(self.monitor.finalize())
        report = ServingReport(
            duration_seconds=self.config.duration_seconds,
            log=self.log,
            windows=windows,
            overall_compliance=self.monitor.overall_compliance,
            admission=self.admission.counters if self.admission else None,
            scaling_actions=list(self.autoscaler.actions) if self.autoscaler else [],
            final_nodes=len(self.db.cluster.nodes),
            mean_utilization=mean_utilization,
            fault_events=(
                list(self.fault_injector.events) if self.fault_injector else []
            ),
            repair=(
                self.fault_injector.total_repair() if self.fault_injector else None
            ),
            audited=auditor.audited - audited_before,
            bound_violations=auditor.violations - violations_before,
            telemetry=self.telemetry,
            forensics=self.forensics,
        )
        # Detach the run's measurement state (queues, offered load) so the
        # same database can host several scenarios back to back.  Autoscaler
        # topology changes deliberately persist — they *are* the run's
        # provisioning decision, reported via ``final_nodes`` and
        # ``scaling_actions``; start from a fresh database (or resize the
        # cluster yourself) when scenarios must not inherit them.
        remove_queues(self.db.cluster)
        self.db.cluster.set_offered_load(0.0)
        return report


def run_serving_simulation(
    db: PiqlDatabase, workload: Workload, config: Optional[ServingConfig] = None
) -> ServingReport:
    """Convenience wrapper: build and run one :class:`ServingSimulation`."""
    return ServingSimulation(db, workload, config or ServingConfig()).run()
