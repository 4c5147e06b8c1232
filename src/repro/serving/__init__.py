"""Serving tier: event-driven multi-client traffic simulation.

This package turns the single-query reproduction into a served system: a
discrete-event kernel interleaves many application servers' simulated
clocks, per-node request queues make latency degrade as offered load
approaches capacity, open/closed-loop drivers replay the benchmark
interaction mixes, an SLO monitor tracks p50/p99 over sliding windows, and
admission control plus an autoscaler close the loop when compliance drops.
"""

from .admission import AdmissionController, AdmissionCounters, AdmissionDecision
from .autoscale import AutoscaleConfig, Autoscaler, ScalingAction
from .drivers import (
    AppServer,
    ClosedLoopDriver,
    OpenLoopDriver,
    RequestRecord,
    TrafficLog,
)
from .events import Event, EventQueue, Simulation
from .monitor import SLOMonitor, WindowReport
from .queueing import (
    NodeRequestQueue,
    install_queues,
    refresh_utilization,
    remove_queues,
)
from .simulator import (
    ServingConfig,
    ServingReport,
    ServingSimulation,
    run_serving_simulation,
)

__all__ = [
    "AdmissionController",
    "AdmissionCounters",
    "AdmissionDecision",
    "AppServer",
    "AutoscaleConfig",
    "Autoscaler",
    "ClosedLoopDriver",
    "Event",
    "EventQueue",
    "NodeRequestQueue",
    "OpenLoopDriver",
    "RequestRecord",
    "SLOMonitor",
    "ScalingAction",
    "ServingConfig",
    "ServingReport",
    "ServingSimulation",
    "Simulation",
    "TrafficLog",
    "WindowReport",
    "install_queues",
    "refresh_utilization",
    "remove_queues",
    "run_serving_simulation",
]
