"""Fault-injector tests: scheduled crash / recover / slow-node events."""

import pytest

from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.replication import (
    FaultInjector,
    FaultSpec,
    crash_recover_timeline,
)
from repro.replication.faults import fault_event_payload, validate_timeline
from repro.serving import Simulation


def cluster_with_data() -> KeyValueCluster:
    cluster = KeyValueCluster(
        ClusterConfig(storage_nodes=4, replication=3, read_quorum=2,
                      write_quorum=2, seed=1)
    )
    cluster.create_namespace("data")
    for index in range(20):
        cluster.load("data", f"k{index}".encode(), b"v")
    return cluster


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(time=1.0, kind="explode", node_id=0)

    def test_slow_needs_factor_above_one(self):
        with pytest.raises(ValueError):
            FaultSpec(time=1.0, kind="slow", node_id=0, factor=0.5)

    def test_timeline_helper_orders_events(self):
        specs = crash_recover_timeline(2, 5.0, 9.0)
        assert [(s.kind, s.time) for s in specs] == [("crash", 5.0),
                                                    ("recover", 9.0)]
        with pytest.raises(ValueError):
            crash_recover_timeline(2, 9.0, 5.0)

    def test_network_kind_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(time=1.0, kind="partition")  # groups required
        with pytest.raises(ValueError):
            FaultSpec(time=1.0, kind="flaky", node_id=0, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(time=1.0, kind="delay", node_id=0, delay_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(time=1.0, kind="flaky", probability=0.5)  # no node

    def test_partition_groups_normalised_to_tuples(self):
        spec = FaultSpec(time=1.0, kind="partition", groups=[[2, 3], [0]])
        assert spec.groups == ((2, 3), (0,))


class TestValidateTimeline:
    def test_recover_at_or_before_crash_rejected(self):
        with pytest.raises(ValueError, match="at-or-before"):
            validate_timeline(
                [
                    FaultSpec(time=3.0, kind="recover", node_id=1),
                    FaultSpec(time=5.0, kind="crash", node_id=1),
                ]
            )
        # Same-tick crash+recover is also invalid — the duplicate rule
        # catches it before the ordering rule does.
        with pytest.raises(ValueError):
            validate_timeline(
                [
                    FaultSpec(time=5.0, kind="crash", node_id=1),
                    FaultSpec(time=5.0, kind="recover", node_id=1),
                ]
            )

    def test_matching_is_per_occurrence(self):
        # crash@1 → recover@2, crash@4 → recover@6: well formed.
        validate_timeline(
            [
                FaultSpec(time=1.0, kind="crash", node_id=0),
                FaultSpec(time=2.0, kind="recover", node_id=0),
                FaultSpec(time=4.0, kind="crash", node_id=0),
                FaultSpec(time=6.0, kind="recover", node_id=0),
            ]
        )
        # Second recover lands before its (second) crash: rejected.
        with pytest.raises(ValueError):
            validate_timeline(
                [
                    FaultSpec(time=1.0, kind="crash", node_id=0),
                    FaultSpec(time=2.0, kind="recover", node_id=0),
                    FaultSpec(time=3.0, kind="recover", node_id=0),
                    FaultSpec(time=4.0, kind="crash", node_id=0),
                ]
            )

    def test_extra_recover_of_up_node_is_allowed(self):
        # Recovering an already-up node is a tested no-op, not an error.
        validate_timeline([FaultSpec(time=2.0, kind="recover", node_id=1)])

    def test_duplicate_same_tick_same_node_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_timeline(
                [
                    FaultSpec(time=2.0, kind="crash", node_id=1),
                    FaultSpec(time=2.0, kind="slow", node_id=1, factor=2.0),
                ]
            )

    def test_same_tick_different_nodes_allowed(self):
        validate_timeline(
            [
                FaultSpec(time=2.0, kind="crash", node_id=1),
                FaultSpec(time=2.0, kind="crash", node_id=2),
            ]
        )

    def test_schedule_validates_before_scheduling(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        sim = Simulation()
        with pytest.raises(ValueError):
            injector.schedule(
                sim,
                [
                    FaultSpec(time=5.0, kind="crash", node_id=1),
                    FaultSpec(time=4.0, kind="recover", node_id=1),
                ],
            )
        assert injector.events == []


class TestFaultInjector:
    def test_scheduled_crash_and_recover_through_kernel(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        sim = Simulation()
        injector.schedule(sim, crash_recover_timeline(1, 2.0, 6.0))

        sim.run(until=3.0)
        assert not cluster.node(1).up
        sim.run(until=10.0)
        assert cluster.node(1).up

        kinds = [(event.time, event.kind) for event in injector.events]
        assert kinds == [(2.0, "crash"), (6.0, "recover")]
        recover = injector.events[-1]
        assert recover.repair is not None
        assert recover.up_nodes_after == 4
        assert injector.total_repair().keys_examined >= 0

    def test_fault_for_removed_node_is_skipped_not_fatal(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        cluster.remove_node()  # node 3 is gone; a stale fault spec remains
        event = injector.apply(FaultSpec(time=1.0, kind="recover", node_id=3))
        assert "skipped" in event.detail
        assert [e.kind for e in injector.events] == ["recover"]

    def test_slow_node_degrades_and_restores(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        node = cluster.node(0)

        injector.apply(FaultSpec(time=0.0, kind="slow", node_id=0, factor=8.0))
        assert node.speed_factor == 8.0
        assert node.effective_capacity_ops_per_second == pytest.approx(
            node.capacity_ops_per_second / 8.0
        )
        slowed = sum(node.charge_read(1, 0, 0.0) for _ in range(100))
        injector.apply(FaultSpec(time=1.0, kind="restore", node_id=0))
        assert node.speed_factor == 1.0
        healthy = sum(node.charge_read(1, 0, 0.0) for _ in range(100))
        assert slowed > healthy * 3

    def test_writes_during_crash_become_hints_then_replay(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        injector.apply(FaultSpec(time=0.0, kind="crash", node_id=2))
        for index in range(30):
            cluster.put("data", f"h{index}".encode(), b"x")
        assert cluster.replication.hint_count(2) > 0
        event = injector.apply(FaultSpec(time=5.0, kind="recover", node_id=2))
        assert event.repair is not None
        assert event.repair.hints_replayed == cluster.replication.hint_count(2) \
            or event.repair.hints_replayed > 0
        assert cluster.replication.hint_count(2) == 0

    def test_network_faults_apply_and_heal(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        injector.apply(
            FaultSpec(time=1.0, kind="partition", groups=((2, 3),))
        )
        assert cluster.network.active
        assert not cluster.network.reachable(0, 2)
        injector.apply(
            FaultSpec(time=2.0, kind="flaky", node_id=1, probability=0.5)
        )
        injector.apply(
            FaultSpec(time=3.0, kind="delay", node_id=0, delay_seconds=0.2)
        )
        heal = injector.apply(FaultSpec(time=4.0, kind="heal"))
        assert not cluster.network.active
        assert "dropped=" in heal.detail
        kinds = [event.kind for event in injector.events]
        assert kinds == ["partition", "flaky", "delay", "heal"]
        partition = injector.events[0]
        assert partition.detail == "groups=2,3"

    def test_an_event_keeps_its_spec_and_prints_what_it_set(self):
        """The detail and the window decision are the spec's own; the
        applied event carries the spec, so incident reports read both off
        it instead of parsing the detail string back."""
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        specs = [
            (FaultSpec(time=1.0, kind="slow", node_id=0, factor=4.0),
             "factor=4", True),
            (FaultSpec(time=2.0, kind="flaky", node_id=1, probability=0.12),
             "p=0.12", True),
            (FaultSpec(time=3.0, kind="flaky", node_id=1, probability=0.0),
             "p=0", False),
            (FaultSpec(time=4.0, kind="delay", node_id=2, delay_seconds=0.6),
             "delay=0.6s", True),
            (FaultSpec(time=5.0, kind="delay", node_id=2, delay_seconds=0.0),
             "delay=0s", False),
            (FaultSpec(time=6.0, kind="partition", groups=((2, 3), (0,))),
             "groups=2,3|0", True),
            (FaultSpec(time=7.0, kind="restore", node_id=0), "", False),
        ]
        for spec, detail, opens in specs:
            event = injector.apply(spec)
            assert (spec.detail, spec.opens) == (detail, opens)
            assert event.spec is spec
            assert (event.detail, event.opens) == (detail, opens)

    def test_timeline_payload_exports_repair_fields(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        injector.apply(FaultSpec(time=0.0, kind="crash", node_id=2))
        for index in range(10):
            cluster.put("data", f"h{index}".encode(), b"x")
        injector.apply(FaultSpec(time=5.0, kind="recover", node_id=2))
        timeline = [fault_event_payload(event) for event in injector.events]
        assert timeline[0]["kind"] == "crash"
        assert "hints_replayed" not in timeline[0]
        recover = timeline[1]
        assert recover["kind"] == "recover"
        assert recover["hints_replayed"] > 0
        assert recover["keys_copied"] >= recover["hints_replayed"]
        assert recover["bytes_copied"] > 0


class TestIdempotenceEdges:
    def test_double_crash_is_a_noop(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        injector.apply(FaultSpec(time=0.0, kind="crash", node_id=1))
        event = injector.apply(FaultSpec(time=1.0, kind="crash", node_id=1))
        assert not cluster.node(1).up
        assert event.up_nodes_after == 3
        # The cluster still serves through the surviving quorum.
        assert cluster.get("data", b"k0").value == b"v"

    def test_recover_of_already_up_node_is_safe(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        event = injector.apply(FaultSpec(time=1.0, kind="recover", node_id=2))
        assert cluster.node(2).up
        assert event.repair is not None
        assert event.repair.hints_replayed == 0
        assert event.up_nodes_after == 4

    def test_slow_on_crashed_node_applies_and_survives_recovery(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        injector.apply(FaultSpec(time=0.0, kind="crash", node_id=1))
        injector.apply(
            FaultSpec(time=1.0, kind="slow", node_id=1, factor=6.0)
        )
        assert cluster.node(1).speed_factor == 6.0
        injector.apply(FaultSpec(time=2.0, kind="recover", node_id=1))
        # Degradation is orthogonal to liveness: the node comes back slow.
        assert cluster.node(1).up
        assert cluster.node(1).speed_factor == 6.0
        injector.apply(FaultSpec(time=3.0, kind="restore", node_id=1))
        assert cluster.node(1).speed_factor == 1.0

    def test_crash_during_hint_replay_rebuilds_hints(self):
        cluster = cluster_with_data()
        injector = FaultInjector(cluster)
        injector.apply(FaultSpec(time=0.0, kind="crash", node_id=2))
        for index in range(20):
            cluster.put("data", f"h{index}".encode(), b"x")
        backlog = cluster.replication.hint_count(2)
        assert backlog > 0
        # The node recovers (hints replay) and immediately crashes again;
        # writes during the second outage hint afresh — nothing of the
        # first batch leaks or double-applies.
        injector.apply(FaultSpec(time=1.0, kind="recover", node_id=2))
        assert cluster.replication.hint_count(2) == 0
        injector.apply(FaultSpec(time=1.1, kind="crash", node_id=2))
        for index in range(5):
            cluster.put("data", f"second{index}".encode(), b"y")
        second_backlog = cluster.replication.hint_count(2)
        assert 0 < second_backlog <= 5
        event = injector.apply(FaultSpec(time=2.0, kind="recover", node_id=2))
        assert event.repair is not None
        assert event.repair.hints_replayed == second_backlog
        assert cluster.replication.hint_count(2) == 0
        for index in range(20):
            assert cluster.get("data", f"h{index}".encode()).value == b"x"
        for index in range(5):
            assert cluster.get("data", f"second{index}".encode()).value == b"y"
