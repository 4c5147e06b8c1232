"""``StorageNode.charge_*``: one sample, one queue visit, one counter flush."""

from __future__ import annotations

import pytest

from repro.kvstore.node import StorageNode


class FixedLatency:
    """Stands in for the latency model: records its arguments."""

    def __init__(self) -> None:
        self.calls = []

    def sample_seconds(self, num_keys, num_bytes, utilization, sim_time):
        self.calls.append((num_keys, num_bytes, utilization, sim_time))
        return 0.002


class FixedQueue:
    def __init__(self, wait: float) -> None:
        self.wait = wait
        self.requests = []

    def on_request(self, sim_time, service_seconds):
        self.requests.append((sim_time, service_seconds))
        return self.wait


def make_node(**overrides) -> StorageNode:
    node = StorageNode.create(node_id=0)
    node.latency_model = FixedLatency()
    for name, value in overrides.items():
        setattr(node, name, value)
    return node


CHARGES = {
    "charge_read": ((3, 100, 5.0), "node.gets", "node.keys_read", 3),
    "charge_range": ((3, 100, 5.0), "node.range_requests", "node.keys_read", 3),
    "charge_write": ((3, 100, 5.0), "node.puts", "node.keys_written", 3),
}


@pytest.mark.parametrize("method", sorted(CHARGES))
def test_charge_without_a_queue(method):
    arguments, rpc_counter, keys_counter, keys = CHARGES[method]
    node = make_node(utilization=0.25, speed_factor=2.0)
    latency = getattr(node, method)(*arguments)
    assert latency == 0.004
    assert node.latency_model.calls == [(3, 100, 0.25, 5.0)]
    assert node.last_queue_wait_seconds == 0.0
    # No queue, no queue counter: reports enumerate names.
    assert node.stats.metrics.counters() == {
        rpc_counter: 1, keys_counter: keys, "node.total_latency_seconds": 0.004,
    }


def test_queue_wait_is_paid_counted_and_remembered():
    queue = FixedQueue(wait=0.01)
    node = make_node(request_queue=queue)
    latency = node.charge_read(1, 0, 7.0)
    assert latency == 0.002 + 0.01
    assert queue.requests == [(7.0, 0.002)]
    assert node.last_queue_wait_seconds == 0.01
    assert list(node.stats.metrics.counters().items()) == [
        ("node.queue_wait_seconds", 0.01),
        ("node.gets", 1),
        ("node.keys_read", 1),
        ("node.total_latency_seconds", latency),
    ]
    node.request_queue = None
    node.charge_write(1, 0, 8.0)
    assert node.last_queue_wait_seconds == 0.0
    assert node.stats.queue_wait_seconds == 0.01


def test_filtered_range_charges_examined_keys_and_shipped_bytes():
    node = make_node()
    node.charge_filtered_range(10, 10, 400, 1.0)
    assert node.latency_model.calls == [(10, 400, 0.0, 1.0)]
    # Nothing filtered out still leaves the counter behind, at zero.
    assert node.stats.metrics.counters() == {
        "node.range_requests": 1,
        "node.keys_read": 10,
        "node.keys_filtered": 0,
        "node.total_latency_seconds": 0.002,
    }
    node.charge_filtered_range(10, 4, 160, 1.0)
    assert node.stats.keys_filtered == 6
    assert node.stats.keys_read == 20
