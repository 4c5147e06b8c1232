"""Cluster-level storage-engine tests: dict/LSM parity and crash recovery.

The acceptance bar of the storage-engine PR:

* the dict and LSM engines are observationally identical through the
  cluster surface — values, charged latencies, serving node ids, keys
  touched, and every non-engine metric match operation for operation;
* acknowledged writes are never lost across a durable crash+recover, and
  the repair traffic (hint replay, anti-entropy copies) matches the
  in-memory arm exactly, because disk recovery restores records at their
  pre-crash sequence numbers and re-pushing them is a newest-wins no-op.
"""

import random
from typing import Dict, List, Tuple

import pytest

from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.replication.store import MISSING_SEQ, decode_record, record_seq
from repro.schema.keys import encode_key


def _make_cluster(engine: str, tmp_path, **engine_options) -> KeyValueCluster:
    options = dict(engine_options)
    if engine == "lsm":
        options.setdefault("data_dir", str(tmp_path / "lsm"))
        options.setdefault("memtable_budget_bytes", 4096)
    return KeyValueCluster(
        ClusterConfig(
            storage_nodes=5,
            replication=3,
            read_quorum=2,
            write_quorum=2,
            seed=11,
            storage_engine=engine,
            engine_options=options or None,
        )
    )


def _mirrored_run(cluster: KeyValueCluster, crash_at: int, recover_at: int):
    """One deterministic mixed workload with a mid-run crash+recover."""
    cluster.create_namespace("data")
    rng = random.Random(77)
    observations: List[Tuple] = []
    for step in range(700):
        if step == crash_at:
            cluster.crash_node(1)
        if step == recover_at:
            report = cluster.recover_node(1)
            observations.append(
                ("repair", report.hints_replayed, report.keys_copied)
            )
        key = f"k{rng.randrange(150):03d}".encode()
        action = rng.random()
        if action < 0.5:
            result = cluster.put("data", key, f"v{step}".encode())
        elif action < 0.7:
            result = cluster.get("data", key)
        elif action < 0.8:
            result = cluster.delete("data", key)
        else:
            end = key + b"\xff"
            result = cluster.get_range("data", key, end, limit=10)
        observations.append(
            (
                result.value,
                round(result.latency_seconds, 12),
                result.node_id,
                result.keys_touched,
                result.hinted,
            )
        )
    final = {
        key: value for key, value in cluster.iter_namespace("data")
    }
    metrics = {
        name: value
        for name, value in cluster.metrics.counters().items()
        if not name.startswith("engine.")
    }
    return observations, final, metrics


@pytest.fixture(params=["dict", "lsm"])
def keyed_cluster(request, tmp_path):
    cluster = _make_cluster(request.param, tmp_path)
    cluster.create_namespace("data")
    for index in range(10):
        cluster.put("data", b"key%02d" % index, b"value%d" % index)
    yield cluster
    cluster.close()


class TestTestAndSet:
    """Test-and-set is the cluster's (a quorum read, then on a match a
    quorum write), the same on either engine."""

    def test_insert_if_absent_succeeds(self, keyed_cluster):
        assert keyed_cluster.test_and_set("data", b"a", None, b"1").value is True
        assert keyed_cluster.get("data", b"a").value == b"1"

    def test_insert_if_absent_fails_when_present(self, keyed_cluster):
        assert keyed_cluster.test_and_set("data", b"key00", None, b"x").value is False
        assert keyed_cluster.get("data", b"key00").value == b"value0"

    def test_swap_with_expected_value(self, keyed_cluster):
        assert (
            keyed_cluster.test_and_set("data", b"key00", b"value0", b"next").value
            is True
        )
        assert keyed_cluster.get("data", b"key00").value == b"next"

    def test_swap_with_wrong_expected_value(self, keyed_cluster):
        assert (
            keyed_cluster.test_and_set("data", b"key00", b"wrong", b"next").value
            is False
        )
        assert keyed_cluster.get("data", b"key00").value == b"value0"


class TestDictLsmParity:
    def test_mirrored_workload_is_bit_identical(self, tmp_path):
        dict_cluster = _make_cluster("dict", tmp_path)
        lsm_cluster = _make_cluster("lsm", tmp_path)
        try:
            dict_run = _mirrored_run(dict_cluster, crash_at=250, recover_at=400)
            lsm_run = _mirrored_run(lsm_cluster, crash_at=250, recover_at=400)
            assert dict_run[0] == lsm_run[0]  # values/latencies/nodes/ops
            assert dict_run[1] == lsm_run[1]  # final contents
            assert dict_run[2] == lsm_run[2]  # non-engine metrics
        finally:
            lsm_cluster.close()

    def test_lsm_recovery_actually_restored_from_disk(self, tmp_path):
        cluster = _make_cluster("lsm", tmp_path)
        try:
            _mirrored_run(cluster, crash_at=250, recover_at=400)
            info = cluster.last_engine_recovery
            assert info is not None
            assert info.segments_loaded + info.wal_records_replayed > 0
            counters = cluster.metrics.counters()
            assert counters["engine.recoveries"] == 1
        finally:
            cluster.close()


class TestAckedWritesNeverLost:
    def test_every_acknowledged_write_survives_crash_recover(self, tmp_path):
        cluster = _make_cluster("lsm", tmp_path)
        try:
            cluster.create_namespace("data")
            acked: Dict[bytes, bytes] = {}
            for index in range(200):
                key = f"k{index:03d}".encode()
                value = f"v{index}".encode()
                cluster.put("data", key, value)
                acked[key] = value
            cluster.crash_node(2)
            # Writes continue while the node is down: its replicas get hints.
            for index in range(200, 320):
                key = f"k{index:03d}".encode()
                value = f"v{index}".encode()
                cluster.put("data", key, value)
                acked[key] = value
            cluster.recover_node(2)
            # Disk recovery + hint replay + anti-entropy together must
            # reproduce the full acknowledged history.
            assert dict(cluster.iter_namespace("data")) == acked
            for key, value in acked.items():
                assert cluster.get("data", key).value == value
        finally:
            cluster.close()

    def test_hint_replay_oracle_matches_engine_arm(self, tmp_path):
        """Hints replayed on recovery are identical dict-vs-lsm (same delta)."""
        results = {}
        for engine in ("dict", "lsm"):
            cluster = _make_cluster(engine, tmp_path)
            try:
                cluster.create_namespace("data")
                for index in range(100):
                    cluster.put("data", f"k{index:03d}".encode(), b"v")
                cluster.crash_node(0)
                for index in range(40):
                    cluster.put("data", f"x{index:03d}".encode(), b"w")
                report = cluster.recover_node(0)
                results[engine] = (
                    report.hints_replayed,
                    report.keys_copied,
                    report.keys_examined,
                    cluster.metrics.counters().get(
                        "replication.hints_replayed", 0
                    ),
                )
            finally:
                cluster.close()
        assert results["dict"] == results["lsm"]

    def test_double_crash_recover_cycles(self, tmp_path):
        cluster = _make_cluster("lsm", tmp_path)
        try:
            cluster.create_namespace("data")
            expected = {}
            for cycle in range(3):
                for index in range(60):
                    key = f"c{cycle}-k{index:02d}".encode()
                    cluster.put("data", key, f"v{cycle}".encode())
                    expected[key] = f"v{cycle}".encode()
                cluster.crash_node(cycle % 5)
                cluster.recover_node(cycle % 5)
            assert dict(cluster.iter_namespace("data")) == expected
            assert cluster.metrics.counters()["engine.recoveries"] == 3
        finally:
            cluster.close()


class TestReopenOverExistingData:
    """A cluster opened over an existing LSM ``data_dir`` must keep writing
    *newer* records than the ones its engines restored: the write sequence
    resumes above the highest stored sequence number, not at 1."""

    @staticmethod
    def _open(tmp_path, replication: int) -> KeyValueCluster:
        cluster = KeyValueCluster(
            ClusterConfig(
                storage_nodes=3,
                replication=replication,
                seed=11,
                storage_engine="lsm",
                engine_options=dict(
                    data_dir=str(tmp_path / "lsm"), memtable_budget_bytes=4096
                ),
            )
        )
        cluster.create_namespace("data")
        return cluster

    @pytest.mark.parametrize("replication", [1, 3])
    @pytest.mark.parametrize("shutdown", ["close", "abandon"])
    def test_write_after_reopen_wins(self, tmp_path, replication, shutdown):
        first = self._open(tmp_path, replication)
        for round_ in range(5):
            first.put("data", b"k", b"v%d" % round_)
        first.put("data", b"gone", b"x")
        first.delete("data", b"gone")
        first.put("data", b"kept", b"as-is")
        if shutdown == "close":
            first.close()  # flushes: the state comes back from segments
        else:
            # Abandoned without close(): nothing flushed, WAL-only state.
            for engine in first.engines.values():
                engine.crash()

        reopened = self._open(tmp_path, replication)
        try:
            engines = list(reopened.engines.values())
            loaded = [e.gauges()["segment_count"] for e in engines]
            replayed = [e.wal_records_replayed for e in engines]
            if shutdown == "close":
                assert any(loaded) and not any(replayed)
            else:
                assert any(replayed) and not any(loaded)
            assert reopened.get("data", b"k").value == b"v4"
            assert reopened.get("data", b"gone").value is None
            reopened.put("data", b"k", b"NEW")
            reopened.put("data", b"gone", b"back")
            reopened.delete("data", b"kept")
            assert reopened.get("data", b"k").value == b"NEW"
            assert reopened.get("data", b"gone").value == b"back"
            assert reopened.get("data", b"kept").value is None
            # Every replica agrees, so no read was saved by a lucky quorum.
            for key, value in ((b"k", b"NEW"), (b"gone", b"back"), (b"kept", None)):
                for node_id in reopened.replication.preference_list("data", key):
                    record = reopened.replication.stores[node_id].get_record("data", key)
                    assert decode_record(record)[1] == value
            # The checked write sees them as newer too (repair, hints).
            seqs = {
                record_seq(store.get_record("data", b"k"))
                for store in reopened.replication.stores.values()
            } - {MISSING_SEQ}
            assert len(seqs) == 1 and seqs.pop() > 8
        finally:
            reopened.close()

    def test_sequence_resumes_above_the_highest_stored(self, tmp_path):
        first = self._open(tmp_path, 3)
        for index in range(20):
            first.put("data", b"k%02d" % index, b"v")
        issued = first.replication.next_seq()
        first.close()
        reopened = self._open(tmp_path, 3)
        try:
            assert reopened.replication.next_seq() == issued
        finally:
            reopened.close()

    def test_fresh_directory_still_starts_at_one(self, tmp_path):
        cluster = self._open(tmp_path, 3)
        try:
            assert cluster.replication.next_seq() == 1
        finally:
            cluster.close()


class TestTopologyWithEngines:
    def test_add_node_gets_its_own_engine(self, tmp_path):
        cluster = _make_cluster("lsm", tmp_path)
        try:
            cluster.create_namespace("data")
            for index in range(80):
                cluster.put("data", f"k{index:03d}".encode(), b"v")
            node = cluster.add_node()
            assert cluster.engine(node.node_id).durable
            assert dict(cluster.iter_namespace("data")) == {
                f"k{index:03d}".encode(): b"v" for index in range(80)
            }
        finally:
            cluster.close()

    def test_remove_node_destroys_its_disk_state(self, tmp_path):
        import os

        cluster = _make_cluster("lsm", tmp_path)
        try:
            cluster.create_namespace("data")
            for index in range(80):
                cluster.put("data", f"k{index:03d}".encode(), b"v")
            cluster.flush_storage()
            departing = cluster.nodes[-1].node_id
            data_dir = cluster.engine(departing).data_dir
            cluster.remove_node()
            assert not os.path.exists(data_dir)
            assert departing not in cluster.engines
        finally:
            cluster.close()


class TestBudgetedBulkLoad:
    def test_bulk_load_matches_per_record_load(self, tmp_path):
        rng = random.Random(13)
        rows = [
            (f"k{rng.randrange(400):04d}".encode(), f"v{i}".encode())
            for i in range(1500)
        ]
        reference = _make_cluster("dict", tmp_path)
        reference.create_namespace("data")
        for key, value in rows:
            reference.load("data", key, value)

        loaded = _make_cluster("lsm", tmp_path)
        try:
            loaded.create_namespace("data")
            loaded.bulk_load_namespace(
                "data", iter(rows), memory_budget_bytes=4096
            )
            assert dict(loaded.iter_namespace("data")) == dict(
                reference.iter_namespace("data")
            )
        finally:
            loaded.close()

    def test_bulk_load_hints_down_nodes(self, tmp_path):
        cluster = _make_cluster("lsm", tmp_path)
        try:
            cluster.create_namespace("data")
            cluster.crash_node(3)
            rows = [(f"k{i:03d}".encode(), b"v") for i in range(120)]
            cluster.bulk_load_namespace("data", iter(rows))
            assert cluster.metrics.counters()["replication.hints_added"] > 0
            cluster.recover_node(3)
            assert dict(cluster.iter_namespace("data")) == dict(rows)
        finally:
            cluster.close()


class TestRebalanceRemovesData:
    """A rebalance removes what a node no longer replicates, on disk too.

    ``add_node``'s anti-entropy pass discards each key from the old owners
    that lost it (``ReplicaStore.discard``: an engine delete, WAL op 2 or a
    segment marker), and ``remove_node`` destroys the leaving node's
    engine with its directory.
    """

    def test_discards_survive_the_engine_crash_and_remove_node_deletes_files(
        self, tmp_path
    ):
        data_dir = tmp_path / "lsm"
        cluster = KeyValueCluster(
            ClusterConfig(
                storage_nodes=3,
                replication=2,
                seed=11,
                storage_engine="lsm",
                # Small: every node's namespace spans several segments.
                engine_options=dict(
                    data_dir=str(data_dir), memtable_budget_bytes=2048
                ),
            )
        )
        try:
            cluster.create_namespace("data")
            rows = {
                encode_key((f"user{lead:02d}", index)): b"v%d-%d" % (lead, index)
                for lead in range(20)
                for index in range(20)
            }
            for key, value in rows.items():
                cluster.load("data", key, value)
            stores = cluster.replication.stores
            old_ids = sorted(stores)
            held = {
                node_id: {
                    key for key in rows
                    if stores[node_id].get_record("data", key) is not None
                }
                for node_id in old_ids
            }
            for node_id in old_ids:
                assert cluster.engine(node_id).gauges()["segment_count"] > 1

            joined = cluster.add_node().node_id
            lost = {
                node_id: {
                    key for key in held[node_id]
                    if node_id not in cluster.replication.preference_list("data", key)
                }
                for node_id in old_ids
            }
            counted = cluster.metrics.value
            assert counted("replication.rebalance_keys_removed") == sum(
                map(len, lost.values())
            ) > 0
            assert counted("replication.rebalance_keys_copied") > 0
            assert counted("replication.rebalance_bytes_copied") > 0

            def check_discarded() -> None:
                for node_id in old_ids:
                    for key in held[node_id]:
                        record = stores[node_id].get_record("data", key)
                        assert (record is None) == (key in lost[node_id]), (
                            node_id, key,
                        )

            check_discarded()
            # The engine's own crash and recovery, with no anti-entropy
            # after it: the discards come back from the log and the runs.
            for node_id in old_ids:
                cluster.engine(node_id).crash()
                cluster.engine(node_id).recover()
            check_discarded()
            for key, value in rows.items():
                assert cluster.get("data", key).value == value

            assert (data_dir / f"node-{joined}").is_dir()
            cluster.remove_node()
            assert not (data_dir / f"node-{joined}").exists()
            for key, value in rows.items():
                assert cluster.get("data", key).value == value
        finally:
            cluster.close()
