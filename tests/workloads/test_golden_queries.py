"""Golden check: every TPC-W and SCADr query, on fixed seeds.

``golden_queries.json`` records, for three sampled parameter sets of every
workload query, the rows returned (count + digest), the key/value
operations and RPC rounds spent, and the plan's static operation bound;
and, once per query under ``"plans"``, the physical plan the optimizer
chose (``plan_to_string``) — a different plan that happens to keep the
bound, the rows and the round count is still a change.
The simulator is deterministic, so a refactor of the read path that is
meant to change none of these must reproduce the file exactly.

Regenerate (only when a change is *meant* to move these numbers)::

    PYTHONPATH=src python tests/workloads/test_golden_queries.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List

from repro import ClusterConfig, PiqlDatabase
from repro.plans.printer import plan_to_string
from repro.workloads import ScadrWorkload, TpcwWorkload, WorkloadScale
from repro.workloads.scadr.queries import EXTRA_QUERIES

GOLDEN_PATH = Path(__file__).with_name("golden_queries.json")
SAMPLES_PER_QUERY = 3


def _rows_digest(rows: List[dict]) -> str:
    text = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_queries(db, workload, names, seed: int) -> Dict[str, List[dict]]:
    observed: Dict[str, List[dict]] = {}
    rng = random.Random(seed)
    for name in names:
        prepared = db.prepare(workload.query_sql(name))
        samples = []
        for _ in range(SAMPLES_PER_QUERY):
            result = prepared.execute(workload.sample_parameters(name, rng))
            samples.append({
                "rows": len(result.rows),
                "rows_digest": _rows_digest(result.rows),
                "operations": result.operations,
                "rpcs": result.rpcs,
                "operation_bound": prepared.operation_bound,
            })
        observed[name] = samples
    return observed


def _plans(db, workload, names) -> Dict[str, str]:
    return {
        name: plan_to_string(db.prepare(workload.query_sql(name)).physical_plan)
        for name in names
    }


def observe() -> Dict[str, dict]:
    scadr_db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=31))
    scadr = ScadrWorkload(
        max_subscriptions=10, subscriptions_per_user=6, thoughts_per_user=12,
        materialized_views=True,
    )
    scadr.setup(scadr_db, WorkloadScale(storage_nodes=4, users_per_node=25, seed=5))
    tpcw_db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=32))
    tpcw = TpcwWorkload(materialized_views=True)
    tpcw.setup(
        tpcw_db,
        WorkloadScale(storage_nodes=4, users_per_node=20, items_total=120, seed=6),
    )
    scadr_names = scadr.query_names() + sorted(EXTRA_QUERIES)
    return {
        "plans": {
            "scadr": _plans(scadr_db, scadr, scadr_names),
            "tpcw": _plans(tpcw_db, tpcw, tpcw.query_names()),
        },
        "scadr": _run_queries(scadr_db, scadr, scadr_names, seed=7),
        "tpcw": _run_queries(tpcw_db, tpcw, tpcw.query_names(), seed=8),
    }


def test_every_workload_query_matches_the_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    observed = observe()
    assert sorted(observed) == sorted(golden)
    plans = observed.pop("plans")
    for workload_name, queries in observed.items():
        assert sorted(queries) == sorted(golden[workload_name]), workload_name
        assert sorted(queries) == sorted(plans[workload_name]), workload_name
        for query_name, plan in plans[workload_name].items():
            assert plan == golden["plans"][workload_name][query_name], (
                workload_name, query_name,
            )
        for query_name, samples in queries.items():
            assert samples == golden[workload_name][query_name], (
                workload_name, query_name,
            )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
