"""Observability export: traces and telemetry artifacts.

``trace_to_chrome_events`` flattens span trees into Chrome's trace-event
format (``ph="X"`` complete events with microsecond timestamps), so a
serving run's traces can be dropped straight into ``chrome://tracing`` or
Perfetto.  Simulated seconds are exported as microseconds, the convention
those viewers expect.

``telemetry_to_json`` / ``write_telemetry_json`` render a
:class:`~repro.obs.telemetry.FleetTelemetry` bundle as the
``results/telemetry_*.json`` artifact — the last ``capacity ×
resolution_seconds`` (64 s) of each series, what was dropped, the alert
timeline and the drift report — that CI uploads and tests assert against.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from .timeseries import TimeSeriesStore
from .trace import Span


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def trace_to_chrome_events(roots: Iterable[Span]) -> List[Dict[str, object]]:
    """Flatten span trees into Chrome trace-event ``ph="X"`` records.

    Every event belongs to process 1; each root span gets its own ``tid``
    so concurrent interactions render as separate rows in the viewer;
    nesting within a row comes from the events' time containment, which the
    viewer reconstructs.
    """
    events: List[Dict[str, object]] = []
    for tid, root in enumerate(roots):
        for span in root.walk():
            if span.end is None:
                continue
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {
                    key: _json_safe(value)
                    for key, value in span.attributes.items()
                },
            })
    return events


def write_chrome_trace(path: str, roots: Iterable[Span]) -> None:
    """Write root spans to ``path`` as a Chrome trace-viewer JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": trace_to_chrome_events(roots)}, handle)


# ----------------------------------------------------------------------
# Telemetry export
# ----------------------------------------------------------------------
def _series_to_dict(store: TimeSeriesStore, name: str, labels) -> Dict[str, object]:
    return {
        "name": name,
        "labels": dict(labels),
        "points": [
            {
                "start": point.start_seconds,
                "width": point.width_seconds,
                "count": point.count,
                "sum": point.sum,
                "min": point.min,
                "max": point.max,
                "last": point.last,
            }
            for point in store.points(name, dict(labels))
        ],
    }


def telemetry_to_json(telemetry) -> Dict[str, object]:
    """A :class:`~repro.obs.telemetry.FleetTelemetry` bundle as plain dicts."""
    store = telemetry.store
    drift = telemetry.drift
    payload: Dict[str, object] = {
        "schema": "fleet-telemetry/v1",
        "scrapes": telemetry.collector.scrapes,
        "last_scrape_seconds": telemetry.collector.last_scrape_seconds,
        "dropped_samples": store.dropped_samples,
        "dropped_series": store.dropped_series,
        # Query classes the drift detector turned away at its cap, and
        # queries whose plan it could not price (0 without a detector).
        "drift_dropped_classes": 0 if drift is None else drift.dropped_classes,
        "drift_unpredictable": 0 if drift is None else drift.unpredictable,
        "series": [
            _series_to_dict(store, name, labels)
            for name, labels in store.series_keys()
        ],
    }
    alerter = telemetry.alerter
    if alerter is not None:
        payload["alerts"] = [
            {
                "rule": alert.rule.name,
                "fast_window_seconds": alert.rule.fast_seconds,
                "slow_window_seconds": alert.rule.slow_seconds,
                "threshold": alert.rule.threshold,
                "fired_at": alert.fired_at,
                "cleared_at": alert.cleared_at,
                "fast_burn": alert.fast_burn,
                "slow_burn": alert.slow_burn,
                "peak_fast_burn": alert.peak_fast_burn,
            }
            for alert in alerter.alerts
        ]
    if drift is not None:
        payload["drift"] = [
            {
                "query_class": report.query_class,
                "observations": report.observations,
                "median_residual_seconds": report.median_residual_seconds,
                "p90_residual_seconds": report.p90_residual_seconds,
                "envelope_low_seconds": report.envelope.low_residual,
                "envelope_high_seconds": report.envelope.high_residual,
                "drifting": report.drifting,
            }
            for report in drift.report()
        ]
    return payload


def write_telemetry_json(telemetry, path: str) -> str:
    """Write the telemetry artifact to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(telemetry_to_json(telemetry), handle, indent=2)
    return path
