"""Engine-level availability semantics: typed errors and the retry path."""

import pytest

from repro import (
    ClusterConfig,
    PiqlDatabase,
    QuorumNotMetError,
    UnavailableError,
)
from repro.resilience.policy import ResilienceConfig
from repro.workloads.scadr.schema import scadr_ddl


def make_db(resilience=None) -> PiqlDatabase:
    db = PiqlDatabase.simulated(
        ClusterConfig(storage_nodes=4, replication=3, read_quorum=2,
                      write_quorum=2, seed=9),
        resilience=resilience,
    )
    db.execute_ddl(scadr_ddl(max_subscriptions=10))
    for name in ("alice", "bob"):
        db.insert("users", {"username": name, "password": "x",
                            "hometown": "berkeley", "created": 1})
    return db


FIND_USER = "SELECT * FROM users WHERE username = <name>"


class TestTypedUnavailable:
    def test_execute_surfaces_typed_error_when_quorum_lost(self):
        db = make_db()
        for node_id in (0, 1, 2):
            db.cluster.crash_node(node_id)
        with pytest.raises(UnavailableError):
            db.execute(FIND_USER, name="alice")

    def test_execute_retries_and_succeeds_after_recovery(self):
        db = make_db()
        for node_id in (0, 1, 2):
            db.cluster.crash_node(node_id)

        # Heal the cluster from inside the retry loop: the first attempt
        # fails, the retry finds the replicas back.
        original = db.executor.execute
        state = {"calls": 0}

        def flaky(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] == 1:
                raise QuorumNotMetError("read", "users", 2, 1)
            for node_id in (0, 1, 2):
                if not db.cluster.node(node_id).up:
                    db.cluster.recover_node(node_id)
            return original(*args, **kwargs)

        db.executor.execute = flaky
        result = db.execute(FIND_USER, name="alice")
        assert state["calls"] == 2
        assert result.rows[0]["username"] == "alice"

    def test_retries_exhaust_and_reraise(self):
        db = make_db(ResilienceConfig(max_attempts=4))
        calls = {"n": 0}

        def always_down(*args, **kwargs):
            calls["n"] += 1
            raise QuorumNotMetError("read", "users", 2, 0)

        db.executor.execute = always_down
        with pytest.raises(QuorumNotMetError):
            db.execute(FIND_USER, name="alice")
        assert calls["n"] == 4  # initial attempt + 3 retries

    def test_new_client_inherits_retry_budget(self):
        db = make_db(ResilienceConfig(max_attempts=6))
        assert db.new_client().resilience.config.max_attempts == 6

    def test_range_reads_raise_when_keys_could_be_missing(self):
        db = make_db()
        cluster = db.cluster
        for node_id in (0, 1, 2):
            cluster.crash_node(node_id)
        table = db.catalog.table("users")
        before = db.client.stats.snapshot()
        with pytest.raises(UnavailableError):
            db.client.get_range(table.namespace, None, None)
        delta = db.client.stats.delta(before)
        # Refused before any key/value operation was issued or counted.
        assert delta.operations == 0
        assert delta.keys_touched == 0
