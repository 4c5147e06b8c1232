"""Observability: traces, metrics, telemetry, and the runtime bound auditor.

PIQL's headline claim is that every admitted query carries a *provable*
static operation bound and a predicted latency.  This package turns those
compile-time guarantees into runtime observations:

* :mod:`~repro.obs.metrics` — a named-metric registry (counters and
  bounded histograms) with generic snapshot/delta semantics; the single
  source of truth behind ``ClientStats``/``NodeStats``/``TrafficLog``,
  whose counter attributes are read-only views of it.
* :mod:`~repro.obs.trace` — per-query/per-interaction span trees recording
  simulated start/end, operation counts, RPC fan-out, and bytes at every
  layer from ``Session`` down to the storage nodes.
* :mod:`~repro.obs.audit` — the runtime bound auditor: every finished query
  is checked against its static bound (violations are kept on the
  auditor), and per-operator latency residuals (predicted vs observed) are
  attached to its spans.
* :mod:`~repro.obs.explain` — ``EXPLAIN ANALYZE``: the annotated span tree
  rendered through the plan printer.
* :mod:`~repro.obs.timeseries` — a fixed-memory ring-buffer time-series
  store keyed by metric name + labels, holding the last ``capacity ×
  resolution_seconds`` of each series (64 s in a serving run).
* :mod:`~repro.obs.telemetry` — the fleet scrape loop: cluster, node,
  replication, view-maintenance, and admission signals into the store.
* :mod:`~repro.obs.slo` — multi-window SLO burn-rate alerting over the
  scraped error-budget counters.
* :mod:`~repro.obs.drift` — prediction-drift detection: rolling per-class
  latency residuals checked against the model's own stated envelope.
* :mod:`~repro.obs.dashboard` — the rendered ASCII fleet dashboard.
* :mod:`~repro.obs.export` — Chrome-trace and telemetry-artifact export.
* :mod:`~repro.obs.criticalpath` — critical-path analysis: every
  microsecond of a finished trace attributed to an exclusive segment
  class, aggregated into per-query-class breakdown profiles.
* :mod:`~repro.obs.flightrec` — the tail-based flight recorder: bounded
  retention of slow / errored / bound-violating / fault-window traces,
  plus breaker-transition synthesis.
* :mod:`~repro.obs.incident` — incident reports correlating fault
  windows, breaker transitions, SLO alerts, drift, and retained traces.
"""

from .audit import AuditEvent, BoundAuditor
from .criticalpath import (
    SEGMENT_CLASSES,
    BreakdownProfile,
    CriticalPathAggregator,
    CriticalPathBreakdown,
    analyze_trace,
)
from .explain import explain_analyze, render_span_tree
from .flightrec import (
    BreakerTransition,
    BreakerWatch,
    FlightRecorder,
    ForensicsConfig,
    RetainedTrace,
)
from .incident import (
    FaultWindow,
    IncidentReport,
    LatencyForensics,
    build_incident_report,
    fault_windows,
)
from .export import (
    telemetry_to_json,
    trace_to_chrome_events,
    write_chrome_trace,
    write_telemetry_json,
)
from .metrics import BoundedHistogram, HistogramMergeError, MetricsRegistry
from .trace import Span, Tracer
from .timeseries import TimeSeriesPoint, TimeSeriesStore
from .telemetry import FleetTelemetry, TelemetryCollector
from .slo import BurnRateAlerter, BurnRateRule, SLOAlert
from .drift import DriftReport, PredictionDriftDetector
from .dashboard import render_dashboard, sparkline

__all__ = [
    "AuditEvent",
    "BoundAuditor",
    "BoundedHistogram",
    "BreakdownProfile",
    "BreakerTransition",
    "BreakerWatch",
    "BurnRateAlerter",
    "BurnRateRule",
    "CriticalPathAggregator",
    "CriticalPathBreakdown",
    "DriftReport",
    "FaultWindow",
    "FleetTelemetry",
    "FlightRecorder",
    "ForensicsConfig",
    "HistogramMergeError",
    "IncidentReport",
    "LatencyForensics",
    "MetricsRegistry",
    "PredictionDriftDetector",
    "RetainedTrace",
    "SEGMENT_CLASSES",
    "SLOAlert",
    "Span",
    "TelemetryCollector",
    "TimeSeriesPoint",
    "TimeSeriesStore",
    "Tracer",
    "analyze_trace",
    "build_incident_report",
    "explain_analyze",
    "fault_windows",
    "render_dashboard",
    "render_span_tree",
    "sparkline",
    "telemetry_to_json",
    "trace_to_chrome_events",
    "write_chrome_trace",
    "write_telemetry_json",
]
