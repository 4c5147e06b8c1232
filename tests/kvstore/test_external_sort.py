"""Unit tests for memory-budgeted external sorting (bulk-load spill path)."""

import os
import random

from repro.kvstore.engine.external import SpillPool, SpillingSorter


def _run_files(spill_dir: str):
    if not os.path.isdir(spill_dir):
        return []
    return [name for name in os.listdir(spill_dir) if name.endswith(".run")]


class TestSpillingSorter:
    def test_sorts_without_spilling_when_under_budget(self, tmp_path):
        sorter = SpillingSorter(str(tmp_path / "spill"), budget_bytes=1 << 20)
        rng = random.Random(7)
        pairs = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(500)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        for key, value in shuffled:
            sorter.add(key, value)
        assert sorter.spill_count == 0
        assert list(sorter.iter_sorted()) == pairs

    def test_spills_under_a_tiny_budget_and_cleans_up(self, tmp_path):
        spill_dir = str(tmp_path / "spill")
        sorter = SpillingSorter(spill_dir, budget_bytes=512)
        rng = random.Random(11)
        pairs = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(400)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        for key, value in shuffled:
            sorter.add(key, value)
            # Resident memory never exceeds budget + one entry.
            assert sorter.buffered_bytes <= 512 + (8 + 5 + 64)
        assert sorter.spill_count > 1
        assert _run_files(spill_dir)
        assert list(sorter.iter_sorted()) == pairs
        # Consuming the sorter deletes its scratch runs.
        assert _run_files(spill_dir) == []

    def test_duplicate_keys_resolve_last_wins_across_runs(self, tmp_path):
        sorter = SpillingSorter(str(tmp_path / "spill"), budget_bytes=256)
        for round_index in range(5):
            for i in range(50):
                sorter.add(f"k{i:02d}".encode(), f"r{round_index}".encode())
        result = dict(sorter.iter_sorted())
        assert len(result) == 50
        assert set(result.values()) == {b"r4"}

    def test_items_added_counts_duplicates(self, tmp_path):
        sorter = SpillingSorter(str(tmp_path / "spill"))
        sorter.add(b"a", b"1")
        sorter.add(b"a", b"2")
        assert sorter.items_added == 2
        assert list(sorter.iter_sorted()) == [(b"a", b"2")]


class TestSpillPool:
    def test_shared_budget_bounds_resident_bytes(self, tmp_path):
        pool = SpillPool(str(tmp_path / "spill"), budget_bytes=2048)
        rng = random.Random(3)
        expected = {}
        for i in range(600):
            namespace = f"ns{i % 3}"
            key = f"k{rng.randrange(100):03d}".encode()
            value = f"v{i}".encode()
            pool.add(namespace, key, value)
            expected.setdefault(namespace, {})[key] = value
            assert pool.resident_bytes() <= 2048 + (4 + 8 + 64)
        assert pool.spill_count > 0
        assert pool.namespaces() == ["ns0", "ns1", "ns2"]
        for namespace in pool.namespaces():
            rows = list(pool.iter_namespace(namespace))
            assert rows == sorted(expected[namespace].items())
        pool.close()

    def test_unknown_namespace_iterates_empty(self, tmp_path):
        pool = SpillPool(str(tmp_path / "spill"), budget_bytes=1024)
        assert list(pool.iter_namespace("absent")) == []
        pool.close()
