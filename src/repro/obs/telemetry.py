"""Fleet telemetry: a scrape loop turning live state into time-series.

PR 6 gave the repo per-query observability (span trees, the bound auditor);
this module watches the *fleet over time*.  A :class:`TelemetryCollector`
runs on the serving event kernel and, every scrape interval, snapshots

* the cluster :class:`~repro.obs.metrics.MetricsRegistry` (replication
  health: hint backlog, hinted-handoff replay, read repairs, anti-entropy
  copy work),
* per-node signals — up/down, utilisation, request-queue backlog, measured
  arrival rate and busy fraction, hint backlog destined for the node, and
  the node's own counters,
* per-node storage-engine gauges (``engine.memtable_bytes``,
  ``engine.segment_count``, ``engine.compaction_backlog``, ...) for nodes
  running a durable engine,
* fleet roll-ups of the application-server registries (``serving.*``
  traffic counters, ``views.deltas.*`` maintenance rates),
* SLO totals from the monitor and the admission controller's decisions

into a fixed-memory :class:`~repro.obs.timeseries.TimeSeriesStore`, then
lets the burn-rate alerter evaluate.  Everything downstream — burn-rate
alerting, the dashboard, the Prometheus/JSON exporters — reads only the
store, so it works identically on a live run or a saved artifact.

The collector deliberately imports nothing from ``repro.serving`` or
``repro.kvstore`` at module level (``kvstore.node`` imports ``obs.metrics``,
so a module-level back-edge would cycle); cluster, monitor, and admission
objects are passed in and duck-typed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .metrics import MetricsRegistry
from .timeseries import TimeSeriesStore, make_labels

#: Cumulative SLO counters the collector writes and the alerter reads.
SLO_TOTAL_METRIC = "serving.slo.total"
SLO_GOOD_METRIC = "serving.slo.good"


class TelemetryCollector:
    """Periodic scraper of fleet state into a time-series store.

    Parameters
    ----------
    store:
        Destination time-series store.
    cluster:
        A :class:`~repro.kvstore.cluster.KeyValueCluster` (duck-typed:
        ``nodes``, ``metrics``, ``replication``); optional so the collector
        can also serve registry-only setups.
    monitor:
        The serving :class:`~repro.serving.monitor.SLOMonitor`; its running
        totals become the ``serving.slo.total`` / ``serving.slo.good``
        counters the burn-rate alerter differentiates.
    admission:
        The :class:`~repro.serving.admission.AdmissionController`; decision
        counters and the live shed probability are scraped.
    registries_fn:
        Callable returning the per-app-server
        :class:`~repro.obs.metrics.MetricsRegistry` objects to roll up
        (called each scrape so autoscaled fleets stay covered).
    alerter:
        Optional burn-rate alerter; :meth:`scrape` calls its ``evaluate``
        after recording, so alerts see the freshest counters.
    breakers_fn:
        Callable returning the live per-client
        :class:`~repro.resilience.breaker.BreakerBoard` objects (one per
        app server with breakers enabled).  Each scrape records, per
        storage node, how many clients currently hold that node's breaker
        open (``resilience.breaker.open_clients``) plus the board count
        (``resilience.breaker.boards``) — the fleet-wide suspicion view
        the dashboard's BREAKERS section renders.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        cluster: Optional[object] = None,
        monitor: Optional[object] = None,
        admission: Optional[object] = None,
        registries_fn: Optional[Callable[[], Iterable[MetricsRegistry]]] = None,
        alerter: Optional[object] = None,
        breakers_fn: Optional[Callable[[], Iterable[object]]] = None,
    ):
        self.store = store
        self.cluster = cluster
        self.monitor = monitor
        self.admission = admission
        self.registries_fn = registries_fn
        self.alerter = alerter
        self.breakers_fn = breakers_fn
        #: Completed scrape ticks.
        self.scrapes = 0
        #: Simulated times of each scrape (bounded implicitly by run length).
        self.last_scrape_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # One scrape
    # ------------------------------------------------------------------
    def scrape(self, now: float) -> None:
        """Snapshot every configured source at simulated time ``now``."""
        record = self.store.record
        cluster = self.cluster
        if cluster is not None:
            for name, value in cluster.metrics.counters().items():
                record(name, value, now)
            replication = getattr(cluster, "replication", None)
            for node in cluster.nodes:
                # Canonical form once per node, not once per sample.
                labels = make_labels({"node": node.node_id})
                record("node.up", 1.0 if node.up else 0.0, now, labels)
                record("node.utilization", node.utilization, now, labels)
                queue = getattr(node, "request_queue", None)
                if queue is not None:
                    record(
                        "node.queue.backlog_seconds",
                        queue.backlog_seconds(now),
                        now,
                        labels,
                    )
                    rate, busy = queue.sample(now)
                    record("node.queue.arrival_rate", rate, now, labels)
                    record("node.queue.busy_fraction", busy, now, labels)
                if replication is not None:
                    record(
                        "replication.hint_backlog",
                        replication.hint_count(node.node_id),
                        now,
                        labels,
                    )
                for name, value in node.stats.metrics.counters().items():
                    record(name, value, now, labels)
            engines = getattr(cluster, "engines", None)
            if engines:
                for node_id, engine in engines.items():
                    gauges = engine.gauges()
                    if not gauges:
                        continue
                    labels = make_labels({"node": node_id})
                    for name, value in gauges.items():
                        record(f"engine.{name}", float(value), now, labels)
        if self.breakers_fn is not None and cluster is not None:
            boards = list(self.breakers_fn())
            open_clients: Dict[int, int] = {
                node.node_id: 0 for node in cluster.nodes
            }
            for board in boards:
                for node_id in board.suspects(now):
                    if node_id in open_clients:
                        open_clients[node_id] += 1
            record("resilience.breaker.boards", float(len(boards)), now)
            for node_id, count in open_clients.items():
                record(
                    "resilience.breaker.open_clients",
                    float(count),
                    now,
                    {"node": node_id},
                )
        if self.registries_fn is not None:
            rollup: Dict[str, float] = {}
            for registry in self.registries_fn():
                for name, value in registry.live_counters.items():
                    rollup[name] = rollup.get(name, 0.0) + value
            for name, value in rollup.items():
                record(name, value, now)
        monitor = self.monitor
        if monitor is not None:
            # Failed interactions burn error budget too: they join the
            # total but can never be good, so burn-rate alerting sees
            # fast-dying requests as clearly as slow ones.
            record(
                SLO_TOTAL_METRIC,
                monitor.total_observations + getattr(monitor, "total_failed", 0),
                now,
            )
            record(SLO_GOOD_METRIC, monitor.total_compliant, now)
            record("serving.slo.recent_compliance", monitor.recent_compliance(now), now)
        admission = self.admission
        if admission is not None:
            counters = admission.counters
            record("admission.admitted", counters.admitted, now)
            record("admission.queued", counters.queued, now)
            record("admission.shed", counters.shed, now)
            record("admission.shed_probability", admission.shed_probability, now)
        self.scrapes += 1
        self.last_scrape_seconds = now
        if self.alerter is not None:
            self.alerter.evaluate(now)

    # ------------------------------------------------------------------
    # Kernel scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, kernel, interval_seconds: float, until_seconds: float
    ) -> None:
        """Run :meth:`scrape` every ``interval_seconds`` of simulated time.

        ``kernel`` is anything with the event kernel's ``every``; the loop
        stops once the next tick would land past ``until_seconds``, so the
        caller should invoke a final :meth:`scrape` at shutdown if it wants
        the very end of the run covered.
        """
        kernel.every(
            interval_seconds, until_seconds,
            lambda sim: self.scrape(sim.now), "telemetry-scrape",
        )


class FleetTelemetry:
    """The assembled telemetry stack of one serving run (or database).

    Bundles the store, collector, alerter, and drift detector so callers
    hold one object; rendering and export helpers live in
    :mod:`repro.obs.dashboard` and :mod:`repro.obs.export` and read from
    this bundle.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        collector: TelemetryCollector,
        alerter: Optional[object] = None,
        drift: Optional[object] = None,
    ):
        self.store = store
        self.collector = collector
        self.alerter = alerter
        self.drift = drift

    @property
    def alerts(self) -> List[object]:
        return list(self.alerter.alerts) if self.alerter is not None else []

    def dashboard(self) -> str:
        from .dashboard import render_dashboard

        return render_dashboard(self)

    def save(self, path: str) -> str:
        from .export import write_telemetry_json

        return write_telemetry_json(self, path)
