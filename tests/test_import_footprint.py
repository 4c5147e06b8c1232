"""What a serving process imports: the request path never loads numpy.

PIQL runs as a library inside every application server, so whatever
``import repro`` loads is paid once per server.  numpy belongs to the
prediction model only (``repro.prediction.histogram`` and the modules built
on it: ``model``, ``training``, ``heatmap``); the engine, the serving tier
and the LSM storage engine must import and run without it.

Each check runs in a fresh interpreter, because this process has long since
imported numpy through other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: A few simulated seconds of the closed-loop TPC-W mix through the serving
#: tier, then a put/get/range on a key/value cluster of LSM engines.
WORK = """
import sys
import tempfile

import repro
import repro.obs
from repro import ClusterConfig, PiqlDatabase
from repro.kvstore.cluster import KeyValueCluster
from repro.serving import ServingConfig, ServingSimulation
from repro.workloads import TpcwWorkload, WorkloadScale

db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=3))
workload = TpcwWorkload()
workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=10,
                                 items_total=50, seed=3))
report = ServingSimulation(db, workload, ServingConfig(
    mode="closed", clients=10, think_time_seconds=0.5, duration_seconds=2.0,
    pipelined=True, seed=3,
)).run()
assert report.log.records, "the closed loop completed no interaction"

with tempfile.TemporaryDirectory() as data_dir:
    cluster = KeyValueCluster(ClusterConfig(
        storage_nodes=3, replication=3, read_quorum=2, write_quorum=2, seed=3,
        storage_engine="lsm", engine_options=dict(data_dir=data_dir),
    ))
    cluster.create_namespace("kv")
    for i in range(20):
        cluster.put("kv", b"k%02d" % i, b"v%02d" % i)
    assert cluster.get("kv", b"k07").value == b"v07"
    rows = cluster.get_range("kv", b"k05", b"k10", limit=3).value
    assert [key for key, _ in rows] == [b"k05", b"k06", b"k07"], rows
    cluster.close()
"""


def run_python(script: str) -> None:
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def test_engine_serving_and_lsm_storage_run_without_numpy():
    # ``None`` in sys.modules makes any ``import numpy`` raise.
    run_python('import sys\nsys.modules["numpy"] = None\n' + WORK)


def test_request_path_loads_no_numpy_and_the_model_does():
    run_python(
        WORK
        + """
assert "numpy" not in sys.modules, "the request path loaded numpy"
import repro.prediction.histogram
assert "numpy" in sys.modules, "the prediction model no longer needs numpy"
"""
    )
