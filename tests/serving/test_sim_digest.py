"""Simulated-bytes pin: a host-only change must not move a simulated byte.

Five simulated seconds of closed-loop TPC-W (50 clients) and SCADr (20
clients) at a fixed seed, pipelined; ``sim_digest.json`` holds a
sha256 over the ``(name, operations, response_seconds)`` of every
:class:`~repro.serving.drivers.RequestRecord` plus the fleet's total RPCs.
Response times are sums of every latency the run charged, so any change to
routing, record sizes, draw order or counter semantics on the read or write
path moves the digest — the two-second form of ``benchmarks/ledger/run.py
--traced --out`` on two commits followed by ``--compare``.

Regenerate (only when a change is *meant* to move simulated numbers)::

    PYTHONPATH=src python tests/serving/test_sim_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.obs.flightrec import ForensicsConfig
from repro.serving.simulator import ServingConfig, ServingSimulation
from repro.workloads import ScadrWorkload, TpcwWorkload, WorkloadScale

DIGEST_PATH = Path(__file__).with_name("sim_digest.json")
SEED = 13
SIMULATED_SECONDS = 5.0

#: name -> (workload factory, scale, clients, think time).
SCENARIOS = {
    "tpcw_closed": (
        TpcwWorkload,
        dict(users_per_node=30, items_total=400),
        50,
        0.5,
    ),
    "scadr_closed": (ScadrWorkload, dict(users_per_node=200), 20, 2.0),
}


def serve(name: str, seconds: float, **observers):
    """One closed-loop run of a scenario: ``(simulation, report)``."""
    factory, scale, clients, think = SCENARIOS[name]
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=SEED))
    workload = factory()
    workload.setup(db, WorkloadScale(storage_nodes=4, seed=SEED, **scale))
    simulation = ServingSimulation(
        db,
        workload,
        ServingConfig(
            mode="closed",
            clients=clients,
            think_time_seconds=think,
            duration_seconds=seconds,
            pipelined=True,
            seed=SEED,
            **observers,
        ),
    )
    return simulation, simulation.run()


def observe(name: str) -> Dict[str, object]:
    simulation, report = serve(name, SIMULATED_SECONDS)
    rpcs = sum(
        int(server.db.client.stats.rpcs) for server in simulation.driver.servers
    )
    sha = hashlib.sha256()
    for record in report.log.records:
        sha.update(
            repr(
                (record.name, record.operations, record.response_seconds)
            ).encode()
        )
    sha.update(repr(rpcs).encode())
    return {
        "completed": report.completed,
        "failed": report.failed,
        "rpcs": rpcs,
        "sha256": sha.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_loop_run_reproduces_the_pinned_digest(name):
    expected = json.loads(DIGEST_PATH.read_text())[name]
    assert observe(name) == expected


def test_observing_a_run_does_not_change_it():
    """Telemetry scrapes, tracing and the flight recorder watch the same
    two simulated seconds a plain run serves: every interaction has the
    same name, operation count and response time."""

    def interactions(report):
        return [
            (record.name, record.operations, record.response_seconds)
            for record in report.log.records
        ]

    _, plain = serve("tpcw_closed", 2.0)
    _, observed = serve(
        "tpcw_closed", 2.0,
        telemetry_enabled=True, forensics=ForensicsConfig(),
    )
    assert observed.telemetry.collector.scrapes > 0
    assert observed.forensics.recorder.seen > 0
    assert interactions(observed) == interactions(plain)
    assert len(interactions(plain)) > 100


if __name__ == "__main__":
    DIGEST_PATH.write_text(
        json.dumps(
            {name: observe(name) for name in sorted(SCENARIOS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {DIGEST_PATH}")
