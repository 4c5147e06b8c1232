"""NetworkModel tests: partitions, cuts, flaky links, delays, determinism."""

import pytest

from repro.kvstore.network import CLIENT, NetworkModel


class TestHealthyDefault:
    def test_inactive_by_default_and_everything_delivers(self):
        net = NetworkModel(seed=1)
        assert not net.active
        assert net.reachable(CLIENT, 0)
        assert net.delivers(CLIENT, 0)
        assert net.delay_seconds(0, 1) == 0.0
        # The healthy fast path must not consume any randomness.
        assert net.dropped_messages == 0

    def test_self_messages_always_deliver(self):
        net = NetworkModel(seed=1)
        net.partition([(0,), (1,)])
        assert net.reachable(0, 0)
        assert net.delivers(1, 1)


class TestPartition:
    def test_cross_group_blocked_same_group_open(self):
        net = NetworkModel(seed=1)
        net.partition([(0, 1), (2, 3)])
        assert net.active
        assert net.reachable(0, 1)
        assert net.reachable(2, 3)
        assert not net.reachable(0, 2)
        assert not net.reachable(3, 1)

    def test_client_lands_in_implicit_remainder_group(self):
        net = NetworkModel(seed=1)
        net.partition([(2, 3)])
        # Unlisted endpoints (client included) share the remainder group.
        assert net.reachable(CLIENT, 0)
        assert net.reachable(0, 1)
        assert not net.reachable(CLIENT, 2)
        assert not net.reachable(CLIENT, 3)

    def test_client_may_be_isolated_explicitly(self):
        net = NetworkModel(seed=1)
        net.partition([(CLIENT,)])
        assert not net.reachable(CLIENT, 0)
        assert net.reachable(0, 1)

    def test_unreachable_messages_count_as_dropped(self):
        net = NetworkModel(seed=1)
        net.partition([(0,)])
        assert not net.delivers(CLIENT, 0)
        assert net.dropped_messages == 1

    def test_empty_groups_rejected(self):
        net = NetworkModel(seed=1)
        with pytest.raises(ValueError):
            net.partition([])
        with pytest.raises(ValueError):
            net.partition([(0,), (0, 1)])


class TestFlaky:
    def test_probability_validated(self):
        net = NetworkModel(seed=1)
        with pytest.raises(ValueError):
            net.set_flaky(0, 1.5)

    def test_certain_drop_and_certain_delivery(self):
        net = NetworkModel(seed=1)
        net.set_flaky(0, 1.0)
        assert not net.delivers(CLIENT, 0)
        assert not net.delivers(0, 1)  # either endpoint being flaky drops
        assert net.delivers(1, 2)
        net.set_flaky(0, 0.0)  # zero clears the entry entirely
        assert not net.active

    def test_drop_rate_tracks_probability(self):
        net = NetworkModel(seed=7)
        net.set_flaky(0, 0.3)
        drops = sum(1 for _ in range(2000) if not net.delivers(CLIENT, 0))
        assert 0.25 < drops / 2000 < 0.35

    def test_draws_are_seed_deterministic(self):
        outcomes = []
        for _ in range(2):
            net = NetworkModel(seed=42)
            net.set_flaky(1, 0.5)
            outcomes.append([net.delivers(CLIENT, 1) for _ in range(50)])
        assert outcomes[0] == outcomes[1]
        different = NetworkModel(seed=43)
        different.set_flaky(1, 0.5)
        assert [different.delivers(CLIENT, 1) for _ in range(50)] != outcomes[0]


class TestDelay:
    def test_delays_are_additive_per_endpoint(self):
        net = NetworkModel(seed=1)
        net.set_delay(0, 0.2)
        net.set_delay(1, 0.1)
        assert net.delay_seconds(CLIENT, 0) == pytest.approx(0.2)
        assert net.delay_seconds(0, 1) == pytest.approx(0.3)
        assert net.delay_seconds(CLIENT, 2) == 0.0
        net.set_delay(0, 0.0)
        assert net.active  # node 1's delay remains
        net.set_delay(1, 0.0)
        assert not net.active

    def test_negative_delay_rejected(self):
        net = NetworkModel(seed=1)
        with pytest.raises(ValueError):
            net.set_delay(0, -0.1)


class TestActiveFlag:
    """``active`` is stored, so every change to the fault state must set it."""

    def test_removing_the_last_flaky_link_turns_it_off(self):
        net = NetworkModel(seed=1)
        net.set_flaky(0, 0.5)
        net.set_flaky(1, 0.5)
        net.set_flaky(0, 0.0)
        assert net.active
        net.set_flaky(1, 0.0)
        assert not net.active

    def test_any_remaining_fault_keeps_it_on(self):
        net = NetworkModel(seed=1)
        net.partition([(0,)])
        net.set_flaky(1, 0.5)
        net.set_delay(2, 0.1)
        net.set_flaky(1, 0.0)
        net.set_delay(2, 0.0)
        assert net.active  # the partition is still there
        net.heal()
        assert not net.active
        net.set_delay(2, 0.1)
        net.set_flaky(1, 0.0)
        assert net.active  # clearing a flaky link leaves the delay on


class TestHeal:
    def test_heal_clears_every_fault_class(self):
        net = NetworkModel(seed=1)
        net.partition([(0,)])
        net.set_flaky(3, 0.9)
        net.set_delay(2, 0.5)
        assert net.active
        net.heal()
        assert not net.active
        assert net.reachable(CLIENT, 0)
        assert net.reachable(1, 2)
        assert net.delivers(CLIENT, 3)
        assert net.delay_seconds(CLIENT, 2) == 0.0

    def test_describe_reports_fault_state(self):
        net = NetworkModel(seed=1)
        snapshot = net.describe()
        assert snapshot["partitioned"] is False
        assert snapshot["flaky"] == {}
        net.set_flaky(0, 0.5)
        net.partition([(0,)])
        snapshot = net.describe()
        assert snapshot["partitioned"] is True
        assert snapshot["flaky"] == {0: 0.5}
