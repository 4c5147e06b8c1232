"""Tests for the admission-control and autoscaling control loops."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, KeyValueCluster
from repro.prediction.slo import ServiceLevelObjective
from repro.serving import admission, autoscale
from repro.serving import (
    AdmissionController,
    AdmissionDecision,
    AutoscaleConfig,
    Autoscaler,
    NodeRequestQueue,
    SLOMonitor,
    install_queues,
)

SLO = ServiceLevelObjective(quantile=0.9, latency_seconds=0.1, interval_seconds=10.0)


def violating_monitor(now: float = 1.0) -> SLOMonitor:
    monitor = SLOMonitor(SLO)
    for i in range(30):
        monitor.record(now - 0.5 + i * 0.01, 1.0)  # 10x over the objective
    return monitor


def healthy_monitor(now: float = 1.0) -> SLOMonitor:
    return monitor_at(0.01, now)


def monitor_at(latency: float, now: float = 1.0) -> SLOMonitor:
    """Thirty recent observations, all at ``latency`` seconds."""
    monitor = SLOMonitor(SLO)
    for i in range(30):
        monitor.record(now - 0.5 + i * 0.01, latency)
    return monitor


class TestAdmissionController:
    def test_shed_probability_ramps_up_under_violation(self):
        controller = AdmissionController(violating_monitor())
        assert controller.shed_probability == 0.0
        controller.update(1.0)
        assert controller.shed_probability > 0.0
        for tick in range(5):
            controller.update(1.0 + tick * 0.5)
        assert controller.shed_probability == pytest.approx(
            admission.MAX_SHED_PROBABILITY
        )

    def test_shed_probability_decays_when_healthy(self):
        controller = AdmissionController(healthy_monitor())
        controller.shed_probability = 0.5
        controller.update(1.0)
        assert controller.shed_probability == pytest.approx(
            0.5 - admission.DECAY
        )
        for tick in range(10):
            controller.update(1.0 + tick * 0.1)
        assert controller.shed_probability == 0.0

    def test_ramp_is_proportional_to_the_overshoot(self):
        # p90 at 120 ms against a 100 ms objective: 20% over.
        controller = AdmissionController(monitor_at(0.12))
        controller.update(1.0)
        assert controller.shed_probability == pytest.approx(admission.GAIN * 0.2)

    def test_hysteresis_band_holds_the_shed_probability(self):
        # Under the objective but above RECOVER_FRACTION of it: no decay.
        latency = SLO.latency_seconds * (1.0 + admission.RECOVER_FRACTION) / 2
        controller = AdmissionController(monitor_at(latency))
        controller.shed_probability = 0.3
        controller.update(1.0)
        assert controller.shed_probability == pytest.approx(0.3)

    def test_no_samples_means_no_shedding(self):
        monitor = SLOMonitor(SLO)
        controller = AdmissionController(monitor)
        controller.update(1.0)
        assert controller.shed_probability == 0.0
        assert controller.decide(1.0) is AdmissionDecision.ADMIT

    def test_decisions_follow_shed_probability(self):
        controller = AdmissionController(violating_monitor())
        for tick in range(10):
            controller.update(1.0 + tick * 0.1)
        decisions = [controller.decide(2.0) for _ in range(200)]
        shed = sum(1 for d in decisions if d is AdmissionDecision.SHED)
        # At max_shed_probability=0.95 nearly everything is refused, but a
        # trickle always gets through.
        assert 150 <= shed < 200
        assert controller.counters.shed == shed
        counters = controller.counters
        assert counters.admitted + counters.queued + counters.shed == 200

    def test_backlog_beyond_limit_sheds_outright(self):
        controller = AdmissionController(healthy_monitor())
        backlog = admission.QUEUE_LIMIT_SECONDS + 0.5
        assert controller.decide(1.0, backlog_seconds=backlog) is AdmissionDecision.SHED

    def test_backlog_below_limit_queues(self):
        controller = AdmissionController(healthy_monitor())
        assert controller.decide(1.0, backlog_seconds=0.5) is AdmissionDecision.QUEUE
        assert controller.counters.queued == 1

    def test_pre_armed_probability_holds_until_enough_is_observed(self):
        controller = AdmissionController(SLOMonitor(SLO))
        controller.pre_arm(0.5)
        controller.update(1.0)
        assert controller.shed_probability == pytest.approx(0.5)

    def test_pre_arm_never_lowers_shed_probability(self):
        controller = AdmissionController(healthy_monitor())
        controller.shed_probability = 0.7
        assert controller.pre_arm(0.1) == pytest.approx(0.7)
        assert controller.pre_arm(0.8) == pytest.approx(0.8)

    def test_pre_arm_is_clamped_to_the_maximum(self):
        controller = AdmissionController(healthy_monitor())
        assert controller.pre_arm(3.0) == pytest.approx(admission.MAX_SHED_PROBABILITY)


class TestAutoscaler:
    def make_cluster(self, nodes: int = 4) -> KeyValueCluster:
        return KeyValueCluster(
            ClusterConfig(storage_nodes=nodes, replication=2, seed=3)
        )

    def saturate(self, cluster: KeyValueCluster, busy: float, now: float) -> None:
        """Pump each node's queue so its smoothed busy fraction is ``busy``."""
        for node in cluster.nodes:
            assert isinstance(node.request_queue, NodeRequestQueue)
            queue = NodeRequestQueue(node.request_queue.smoothing_seconds)
            node.request_queue = queue
            total = busy * now
            charged = 0.0
            step = 0.01
            t = 0.0
            while charged < total:
                queue.on_request(t, step)
                charged += step
                t += step / busy
            queue.sample(now)

    def test_scales_up_under_high_utilization(self):
        cluster = self.make_cluster()
        install_queues(cluster)
        scaler = Autoscaler(
            cluster, AutoscaleConfig(high_utilization=0.7, cooldown_seconds=1.0)
        )
        self.saturate(cluster, busy=0.95, now=10.0)
        action = scaler.evaluate(10.0)
        assert action is not None and action.action == "add"
        assert len(cluster.nodes) == 5
        # The new node got a queue so it participates in measurement.
        assert isinstance(cluster.nodes[-1].request_queue, NodeRequestQueue)

    def test_cooldown_blocks_back_to_back_actions(self):
        cluster = self.make_cluster()
        install_queues(cluster)
        scaler = Autoscaler(
            cluster, AutoscaleConfig(high_utilization=0.7, cooldown_seconds=5.0)
        )
        self.saturate(cluster, busy=0.95, now=10.0)
        assert scaler.evaluate(10.0) is not None
        assert scaler.evaluate(12.0) is None  # still cooling down
        self.saturate(cluster, busy=0.95, now=16.0)
        assert scaler.evaluate(16.0) is not None

    def test_scales_down_when_idle_but_not_below_replication(self):
        cluster = self.make_cluster(nodes=3)
        install_queues(cluster)
        scaler = Autoscaler(
            cluster,
            AutoscaleConfig(
                low_utilization=0.3, cooldown_seconds=0.5, warmup_seconds=1.0
            ),
        )
        action = scaler.evaluate(10.0)
        assert action is not None and action.action == "remove"
        assert len(cluster.nodes) == 2
        # Floor: never below the replication factor.
        assert scaler.evaluate(20.0) is None
        assert len(cluster.nodes) == 2

    def test_never_grows_past_max_nodes(self, monkeypatch):
        cluster = self.make_cluster()
        install_queues(cluster)
        monkeypatch.setattr(autoscale, "MAX_NODES", len(cluster.nodes))
        scaler = Autoscaler(
            cluster, AutoscaleConfig(high_utilization=0.7, cooldown_seconds=1.0)
        )
        self.saturate(cluster, busy=0.95, now=10.0)
        assert scaler.evaluate(10.0) is None
        assert len(cluster.nodes) == 4

    def test_no_scale_down_during_warmup(self):
        cluster = self.make_cluster()
        install_queues(cluster)
        scaler = Autoscaler(
            cluster, AutoscaleConfig(low_utilization=0.3, warmup_seconds=30.0)
        )
        assert scaler.evaluate(10.0) is None
        assert len(cluster.nodes) == 4

    def test_actions_are_logged(self):
        cluster = self.make_cluster()
        install_queues(cluster)
        scaler = Autoscaler(
            cluster, AutoscaleConfig(high_utilization=0.7, cooldown_seconds=0.1)
        )
        self.saturate(cluster, busy=0.95, now=10.0)
        scaler.evaluate(10.0)
        assert len(scaler.actions) == 1
        assert scaler.actions[0].nodes_after == 5
        assert scaler.actions[0].utilization > 0.7
