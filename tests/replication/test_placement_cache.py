"""The placement cache costs one dict slot per key and follows the ring.

``ReplicationManager`` caches each key's preference list, read order and
cut (the length of its first encoded value, which ``range_group`` reads for
a range start) under ``namespace -> key``.  A cached key must not keep a
copy of its namespace string or a per-key tuple (a loader that builds its
namespace string per row would otherwise pay for both on every key it
places), and a topology change must leave no stale answer behind.
"""

from __future__ import annotations

import tracemalloc

from repro.replication.manager import ReplicationManager
from repro.schema.keys import prefix_range

KEYS = 20_000
#: Bytes a cached key may keep alive.  A ``(namespace, key)`` tuple holding
#: its own copy of the namespace costs ~140 B; one dict slot costs ~30 B.
MAX_BYTES_PER_KEY = 64


def _manager(node_ids) -> ReplicationManager:
    manager = ReplicationManager(replication=3, vnodes_per_node=16, seed=5)
    for node_id in node_ids:
        manager.attach_node(node_id)
    return manager


def test_a_cached_key_keeps_no_namespace_copy_and_no_tuple():
    manager = _manager(range(4))
    keys = [b"user-%06d" % index for index in range(KEYS)]
    table = "thoughts"
    manager.preference_list("table:" + table, b"warm-up")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            # A fresh, equal namespace string per call, as a caller that
            # formats it per row would pass.
            manager.preference_list("table:" + table, key)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / KEYS <= MAX_BYTES_PER_KEY, (
        f"{retained / KEYS:.1f} B retained per placed key"
    )


def _answers(manager: ReplicationManager, keys):
    return {
        (namespace, key): (
            list(manager.preference_list(namespace, key)),
            list(manager.read_preference(namespace, key)),
        )
        for namespace in ("table:users", "index:by_owner")
        for key in keys
    }


def test_an_epoch_move_leaves_no_stale_placement():
    keys = [b"k%04d" % index for index in range(300)]
    manager = _manager(range(4))
    before = _answers(manager, keys)  # fills the cache in both namespaces

    manager.attach_node(4)
    grown = _answers(manager, keys)
    assert grown == _answers(_manager(range(5)), keys)
    # The test can see a stale cache: the new node took some keys.
    assert grown != before

    manager.forget_node(4)
    assert _answers(manager, keys) == _answers(_manager(range(4)), keys) == before


def _groups(manager: ReplicationManager, owners):
    answers = {}
    for owner in owners:
        start, end = prefix_range((owner,))
        group = manager.range_group("index:by_owner", start, end)
        answers[owner] = None if group is None else (group[0], list(group[1]))
    return answers


def test_an_epoch_move_leaves_no_stale_range_group():
    """A range start's group comes from its placement entry, which an
    epoch move drops like any other."""
    owners = ["user%04d" % index for index in range(300)]
    manager = _manager(range(4))
    before = _groups(manager, owners)
    assert _groups(manager, owners) == before  # now every start is held
    manager.attach_node(4)
    grown = _groups(manager, owners)
    assert grown == _groups(_manager(range(5)), owners)
    assert grown != before
    manager.forget_node(4)
    assert _groups(manager, owners) == before
