"""A rendered ASCII dashboard over the fleet-telemetry store.

One screenful answering the operator questions in order of urgency: is the
SLO burning (burn-rate gauges, alert timeline), is the fleet healthy
(per-node table: up/down, utilisation, queue backlog, hint backlog), are
durable storage engines keeping up (memtable/WAL/segment/compaction table,
shown only when a node runs one), is the
prediction model still honest (drift table), and what has traffic been
doing (sparkline history of throughput-ish counters).  Everything renders
from the :class:`~repro.obs.telemetry.FleetTelemetry` bundle alone, so the
same function serves ``ServingReport.dashboard()``, the demo script, and
the CI artifact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .telemetry import FleetTelemetry
from .timeseries import TimeSeriesPoint

#: Eight-level block characters, lowest to highest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render values as a fixed-width unicode sparkline (empty-safe)."""
    if not values:
        return ""
    values = list(values)[-width:]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    chars = []
    top = len(_SPARK_BLOCKS) - 1
    for value in values:
        index = int((value - low) / span * top + 0.5)
        chars.append(_SPARK_BLOCKS[max(0, min(top, index))])
    return "".join(chars)


def _rate_series(points: List[TimeSeriesPoint]) -> List[float]:
    """Per-bucket increase of a cumulative counter series."""
    rates: List[float] = []
    previous: Optional[float] = None
    for point in points:
        if previous is not None:
            rates.append(max(0.0, point.last - previous))
        previous = point.last
    return rates


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(str(cell).ljust(width) for cell, width in zip(cells, widths)).rstrip()


def render_dashboard(telemetry: FleetTelemetry, width: int = 72) -> str:
    """Render the fleet dashboard as one multi-line string."""
    store = telemetry.store
    lines: List[str] = []
    rule = "─" * width

    lines.append("FLEET TELEMETRY".center(width))
    lines.append(rule)
    scrapes = telemetry.collector.scrapes
    last = telemetry.collector.last_scrape_seconds
    lines.append(
        f"scrapes: {scrapes}"
        + (f"   last @ {last:.2f}s" if last is not None else "")
        + f"   series: {len(store)}"
        + (f"   dropped: {store.dropped_samples}" if store.dropped_samples else "")
    )

    # ------------------------------------------------------------------
    # SLO burn
    # ------------------------------------------------------------------
    alerter = telemetry.alerter
    if alerter is not None and last is not None:
        lines.append("")
        lines.append("SLO BURN")
        budget_pct = alerter.error_budget * 100.0
        slo = alerter.slo
        lines.append(
            f"  objective: p{slo.quantile * 100:g} < {slo.latency_ms:g} ms "
            f"(budget {budget_pct:g}%)"
        )
        for rule_def in alerter.rules:
            fast = alerter.burn_rate(last, rule_def.fast_seconds)
            slow = alerter.burn_rate(last, rule_def.slow_seconds)
            state = (
                "FIRING"
                if any(
                    a.active and a.rule.name == rule_def.name
                    for a in alerter.alerts
                )
                else "ok"
            )
            lines.append(
                f"  {rule_def.name:<24} fast {fast:6.2f}x  slow {slow:6.2f}x  {state}"
            )
        if alerter.alerts:
            lines.append("  alerts:")
            for alert in alerter.alerts:
                lines.append(f"    {alert.describe()}")
        else:
            lines.append("  alerts: none")

    # ------------------------------------------------------------------
    # Node health
    # ------------------------------------------------------------------
    node_labels = store.label_sets("node.up")
    if node_labels:
        lines.append("")
        lines.append("NODES")
        header = ("node", "up", "util", "backlog", "hints", "utilization")
        widths = (4, 4, 6, 9, 6, 34)
        lines.append("  " + _format_row(header, widths))
        for labels in node_labels:
            label_dict = dict(labels)
            node_id = label_dict.get("node", "?")
            up = store.latest_value("node.up", label_dict, default=1.0)
            util_points = store.points("node.utilization", label_dict)
            util = util_points[-1].last if util_points else 0.0
            backlog = store.latest_value(
                "node.queue.backlog_seconds", label_dict
            )
            hints = store.latest_value("replication.hint_backlog", label_dict)
            spark = sparkline([p.mean for p in util_points], width=32)
            lines.append(
                "  "
                + _format_row(
                    (
                        node_id,
                        "UP" if up >= 0.5 else "DOWN",
                        f"{util:.2f}",
                        f"{backlog * 1000.0:6.1f}ms",
                        f"{int(hints)}",
                        spark,
                    ),
                    widths,
                )
            )

    # ------------------------------------------------------------------
    # Circuit breakers (only present when clients run resilience breakers)
    # ------------------------------------------------------------------
    breaker_labels = store.label_sets("resilience.breaker.open_clients")
    if breaker_labels:
        lines.append("")
        boards = store.latest_value("resilience.breaker.boards")
        lines.append(f"BREAKERS ({int(boards)} client boards)")
        header = ("node", "open now", "peak", "open history")
        widths = (4, 9, 5, 34)
        lines.append("  " + _format_row(header, widths))
        for labels in breaker_labels:
            label_dict = dict(labels)
            node_id = label_dict.get("node", "?")
            points = store.points(
                "resilience.breaker.open_clients", label_dict
            )
            open_now = points[-1].last if points else 0.0
            peak = max((p.max for p in points), default=0.0)
            spark = sparkline([p.mean for p in points], width=32)
            lines.append(
                "  "
                + _format_row(
                    (node_id, f"{int(open_now)}", f"{int(peak)}", spark),
                    widths,
                )
            )

    # ------------------------------------------------------------------
    # Storage engines (only present when nodes run a durable engine)
    # ------------------------------------------------------------------
    engine_labels = store.label_sets("engine.memtable_bytes")
    if engine_labels:
        lines.append("")
        lines.append("STORAGE ENGINE")
        header = ("node", "memtable", "wal", "segs", "seg bytes", "compact", "memtable history")
        widths = (4, 9, 9, 5, 10, 8, 24)
        lines.append("  " + _format_row(header, widths))
        for labels in engine_labels:
            label_dict = dict(labels)
            node_id = label_dict.get("node", "?")
            mem_points = store.points("engine.memtable_bytes", label_dict)
            memtable = mem_points[-1].last if mem_points else 0.0
            wal = store.latest_value("engine.wal_bytes", label_dict)
            segments = store.latest_value("engine.segment_count", label_dict)
            seg_bytes = store.latest_value("engine.segment_bytes", label_dict)
            compactions = store.latest_value("engine.compactions", label_dict)
            backlog = store.latest_value("engine.compaction_backlog", label_dict)
            spark = sparkline([p.mean for p in mem_points], width=24)
            lines.append(
                "  "
                + _format_row(
                    (
                        node_id,
                        f"{int(memtable)}B",
                        f"{int(wal)}B",
                        f"{int(segments)}",
                        f"{int(seg_bytes)}B",
                        f"{int(compactions)}"
                        + (f"+{int(backlog)}" if backlog else ""),
                        spark,
                    ),
                    widths,
                )
            )

    # ------------------------------------------------------------------
    # Replication health (cluster-wide counters)
    # ------------------------------------------------------------------
    repl_names = [
        name
        for name in store.names()
        if name.startswith("replication.") and () in {
            labels for series_name, labels in store.series_keys()
            if series_name == name
        }
    ]
    if repl_names:
        lines.append("")
        lines.append("REPLICATION")
        for name in repl_names:
            value = store.latest_value(name)
            lines.append(f"  {name:<36} {value:12.0f}")

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    traffic_names = [
        name for name in ("serving.slo.total", "serving.completed", "admission.shed")
        if store.points(name)
    ]
    if traffic_names:
        lines.append("")
        lines.append("TRAFFIC (per-bucket rate)")
        for name in traffic_names:
            rates = _rate_series(store.points(name))
            total = store.latest_value(name)
            lines.append(
                f"  {name:<24} {sparkline(rates, width=32):<32} total {total:.0f}"
            )

    # ------------------------------------------------------------------
    # Prediction drift
    # ------------------------------------------------------------------
    drift = telemetry.drift
    if drift is not None:
        lines.append("")
        lines.append("PREDICTION DRIFT")
        reports = drift.report()
        if not reports:
            lines.append("  no audited query classes yet")
        for report in reports:
            state = "DRIFTING" if report.drifting else "ok"
            name = report.query_class
            if len(name) > 40:
                name = name[:37] + "..."
            lines.append(
                f"  {name:<40} median {report.median_residual_seconds * 1000.0:+7.2f} ms"
                f"  n={report.observations:<4d} {state}"
            )

    # ------------------------------------------------------------------
    # Latency breakdown (critical-path aggregates scraped by forensics)
    # ------------------------------------------------------------------
    share_labels = store.label_sets("forensics.segment_share")
    if share_labels:
        lines.append("")
        lines.append("LATENCY BREAKDOWN (critical-path share)")
        analyzed = store.latest_value("forensics.traces_analyzed")
        dropped_roots = store.latest_value("obs.trace.dropped_roots")
        summary = f"  traces analyzed: {int(analyzed)}"
        if dropped_roots:
            summary += f"   tracer dropped roots: {int(dropped_roots)}"
        lines.append(summary)
        by_class: dict = {}
        for labels in share_labels:
            label_dict = dict(labels)
            query_class = label_dict.get("query_class", "?")
            segment = label_dict.get("segment", "?")
            by_class.setdefault(query_class, []).append((segment, label_dict))
        for query_class in sorted(by_class):
            name = query_class
            if len(name) > width - 4:
                name = name[: width - 7] + "..."
            lines.append(f"  {name}")
            rows = []
            for segment, label_dict in by_class[query_class]:
                points = store.points("forensics.segment_share", label_dict)
                share = points[-1].last if points else 0.0
                rows.append((share, segment, points))
            for share, segment, points in sorted(rows, reverse=True):
                if share <= 0.0:
                    continue
                spark = sparkline([p.mean for p in points], width=24)
                lines.append(
                    f"    {segment:<24} {share * 100.0:5.1f}%  {spark}"
                )

    lines.append(rule)
    return "\n".join(lines)
