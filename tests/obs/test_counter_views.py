"""Counter attributes are read-only views of the metrics registry.

``ClientStats``, ``NodeStats`` and ``TrafficLog`` expose their counters as
attributes made by :func:`~repro.obs.metrics.counter_properties`; a counter
grows only through ``metrics.add`` / ``add_many``.  The ledger
(``benchmarks/ledger/adapter.py``) reads five ``ClientStats`` fields and
``TrafficLog.shed`` through ``getattr(..., 0)``, so a view that disappeared
would read as zero instead of failing: the served run below pins that each
view says what the registry says.
"""

from __future__ import annotations

import ast
import os

import pytest

import repro
from repro import ClusterConfig, PiqlDatabase
from repro.kvstore.client import _CLIENT_COUNTERS, ClientStats
from repro.kvstore.node import _NODE_COUNTERS, NodeStats
from repro.prediction.slo import ServiceLevelObjective
from repro.replication import FaultSpec
from repro.serving import (
    ServingConfig,
    ServingSimulation,
    TrafficLog,
)
from repro.workloads import TpcwWorkload, WorkloadScale

#: ``ClientStats`` fields the ledger reads (``adapter.serving_outcome``).
LEDGER_CLIENT_FIELDS = (
    "operations", "rpcs", "dereference_rounds", "saved_reads", "keys_touched",
)


@pytest.mark.parametrize(
    "stats, field",
    [(ClientStats(), "operations"), (NodeStats(), "gets"), (TrafficLog(), "shed")],
)
def test_a_counter_view_cannot_be_assigned(stats, field):
    with pytest.raises(AttributeError):
        setattr(stats, field, 3)


def test_views_read_the_registry_after_a_served_run():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=3))
    workload = TpcwWorkload()
    workload.setup(db, WorkloadScale(
        storage_nodes=4, seed=3, users_per_node=10, items_total=60
    ))
    # An SLO nothing meets (admission sheds) and two of four nodes down
    # (quorums fail), so ``shed`` and ``failed`` are not trivially zero.
    simulation = ServingSimulation(db, workload, ServingConfig(
        mode="open",
        clients=10,
        arrival_rate_per_second=80.0,
        duration_seconds=3.0,
        slo=ServiceLevelObjective(
            quantile=0.5, latency_seconds=0.001, interval_seconds=1.0
        ),
        admission=True,
        faults=[
            FaultSpec(time=1.0, kind="crash", node_id=0),
            FaultSpec(time=1.0, kind="crash", node_id=1),
        ],
        pipelined=True,
        seed=3,
    ))
    log = simulation.run().log
    assert log.shed > 0 and log.failed > 0
    assert (log.shed, log.failed) == (
        log.metrics.value("serving.shed"), log.metrics.value("serving.failed")
    )
    for server in simulation.driver.servers:
        stats = server.db.client.stats
        for field in LEDGER_CLIENT_FIELDS:
            metric = stats.metrics.value(f"client.{field}")
            assert getattr(stats, field) == metric
    total = sum(s.db.client.stats.operations for s in simulation.driver.servers)
    assert total > 0


def test_no_source_assigns_a_counter_view():
    """``x.stats.<counter> = ...`` / ``+=`` and ``x.log.shed += ...`` are the
    setters' old callers; they would raise now, and nothing may bring them
    back in a branch the tests do not run."""
    views = {
        "stats": {name for name, _ in _CLIENT_COUNTERS + _NODE_COUNTERS},
        "log": {"shed", "failed"},
    }
    package = os.path.dirname(repro.__file__)
    offenders = []
    for directory, _, names in os.walk(package):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                ):
                    continue
                owner = getattr(node.value, "attr", getattr(node.value, "id", None))
                if node.attr in views.get(owner, ()):
                    offenders.append(f"{name}:{node.lineno} {owner}.{node.attr}")
    assert offenders == []
