"""Trace-enabled serving smoke run: strict bound audit + exported traces.

CI runs this as a separate job: a short closed-loop TPC-W serving window
with the query tracer attached to every emulated application server and
the shared bound auditor kept in **strict** mode — a single query
exceeding its static operation bound raises mid-run and fails the job, so
the paper's scale-independence guarantee is asserted live on every push,
not just in unit tests.

The span trees recorded by the app servers are exported in Chrome
trace-event format to ``results/serving_trace.json`` and uploaded as a
build artifact: download it and load it into ``chrome://tracing`` (or
https://ui.perfetto.dev) to scrub through the run's interactions.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..obs.export import trace_to_chrome_events
from ..obs.trace import Span
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import loaded_database, serve

SEED = 17


def run(_config: None) -> Dict[str, Any]:
    db, workload = loaded_database(
        TpcwWorkload(), storage_nodes=4, users_per_node=10, items_total=200,
        seed=SEED,
    )
    db.reset_measurements()
    # Enabled before the simulation builds its app servers: `new_client`
    # views inherit tracing, so every server records its own span trees.
    db.enable_tracing(keep=32)
    served = serve(
        db,
        workload,
        clients=10,
        think_time_seconds=0.5,
        duration_seconds=5.0,
        pipelined=True,
        strict_audit=True,
        seed=SEED,
    )
    roots: List[Span] = list(db.tracer.roots)
    for server in served.simulation.driver.servers:
        tracer = server.db.tracer
        if tracer is not None:
            roots.extend(tracer.roots)
    report = served.report
    return {
        "summary": {
            "completed": report.completed,
            "simulated_seconds": report.duration_seconds,
            "availability": report.availability,
            "audited": report.audited,
            "bound_violations": report.bound_violations,
            "span_trees": len(roots),
        },
        "serving_trace": {"traceEvents": trace_to_chrome_events(roots)},
    }


def check(result: Dict[str, Any]) -> None:
    summary = result["summary"]
    claim("trace_smoke: the auditor saw the run's queries (wiring intact)",
          summary["audited"] > 0)
    claim("trace_smoke: no query exceeded its static bound",
          summary["bound_violations"] == 0, summary["bound_violations"])
    claim("trace_smoke: the app servers recorded span trees",
          summary["span_trees"] > 0)


EXPERIMENTS = (
    Experiment(
        name="trace_smoke",
        # One size, nothing to configure: the run is already a five-second smoke.
        config=None,
        quick=None,
        run=run,
        payload=lambda result: result["summary"],
        check=check,
        details=lambda result: {"serving_trace": result["serving_trace"]},
    ),
)
