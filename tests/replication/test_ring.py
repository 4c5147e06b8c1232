"""Unit tests for the consistent-hashing replica placement ring."""

import pytest

from repro.replication import HashRing, moved_keys, placement_token


def ring_with(node_ids, vnodes=64, seed=0):
    ring = HashRing(vnodes_per_node=vnodes, seed=seed)
    for node_id in node_ids:
        ring.add_node(node_id)
    return ring


def tokens(count):
    return [placement_token("ns", f"key{i:05d}".encode()) for i in range(count)]


class TestHashRing:
    def test_preference_list_is_deterministic(self):
        a = ring_with(range(5))
        b = ring_with(range(5))
        for token in tokens(50):
            assert a.preference_list(token, 3) == b.preference_list(token, 3)

    def test_preference_list_distinct_nodes(self):
        ring = ring_with(range(4))
        for token in tokens(100):
            prefs = ring.preference_list(token, 3)
            assert len(prefs) == 3
            assert len(set(prefs)) == 3

    def test_preference_list_clamped_to_membership(self):
        ring = ring_with(range(2))
        assert len(ring.preference_list(tokens(1)[0], 5)) == 2
        assert HashRing().preference_list(b"x", 3) == []

    def test_add_node_is_idempotent_and_remove_unknown_is_noop(self):
        ring = ring_with(range(3))
        epoch = ring.epoch
        ring.add_node(1)
        assert ring.epoch == epoch
        ring.remove_node(99)
        assert ring.epoch == epoch
        assert len(ring) == 3

    def test_topology_change_bumps_epoch(self):
        ring = ring_with(range(3))
        epoch = ring.epoch
        ring.add_node(3)
        assert ring.epoch == epoch + 1
        ring.remove_node(3)
        assert ring.epoch == epoch + 2

    def test_minimal_movement_on_node_addition(self):
        before = ring_with(range(8))
        after = ring_with(range(9))
        sample = tokens(400)
        moved = moved_keys(before, after, sample, n=3)
        # Adding one node to eight should move roughly 3/9 of preference
        # lists (each of the three replica slots has a ~1/9 chance); far
        # less than a naive modulo rehash, which moves nearly everything.
        assert moved / len(sample) < 0.55

    def test_ownership_roughly_balanced(self):
        ring = ring_with(range(4), vnodes=128)
        fractions = ring.ownership_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(0.15 < fraction < 0.35 for fraction in fractions.values())

    def test_invalid_vnodes(self):
        with pytest.raises(ValueError):
            HashRing(vnodes_per_node=0)
