"""Tests for the LSM-lite storage engine: oracle parity, durability, recovery.

Every test runs in a pytest tmp directory; nothing is written inside the
repository.  The in-memory :class:`OrderedKVMap` is the behavioural oracle —
an LSM tree must be observationally identical through the whole namespace-map
surface (``get``/``put``/``delete``/``range``/``iter_range``) no matter how
its state is split between memtable, WAL, and segments.
"""

import os
import random
import stat

import pytest

from repro.kvstore.engine import create_engine
from repro.kvstore.engine.lsm import LsmEngine
from repro.kvstore.engine.segment import write_segment
from repro.kvstore.engine.wal import OP_DROP_NAMESPACE, WriteAheadLog
from repro.kvstore.memory import OrderedKVMap


@pytest.fixture
def engine(tmp_path):
    engine = LsmEngine(str(tmp_path / "node-0"), memtable_budget_bytes=2048)
    yield engine
    engine.close()


def _fill(target, count: int, prefix: str = "k") -> None:
    for index in range(count):
        target.put(f"{prefix}{index:04d}".encode(), f"v{index}".encode())


class TestFactory:
    def test_create_engine_places_lsm_under_data_dir(self, tmp_path):
        engine = create_engine("lsm", 3, data_dir=str(tmp_path))
        try:
            assert engine.data_dir == str(tmp_path / "node-3")
            assert engine.durable
        finally:
            engine.close()

    def test_dict_engine_is_the_default(self):
        engine = create_engine("dict", 0)
        assert not engine.durable

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            create_engine("rocksdb", 0)


class TestOracleParity:
    def test_randomized_ops_match_ordered_map(self, engine):
        """Mixed workload with flushes and compactions interleaved."""
        oracle = OrderedKVMap()
        tree = engine.map("data")
        rng = random.Random(42)
        keys = [f"k{i:03d}".encode() for i in range(120)]
        for step in range(3000):
            key = rng.choice(keys)
            action = rng.random()
            if action < 0.55:
                value = f"v{step}".encode()
                tree.put(key, value)
                oracle.put(key, value)
            elif action < 0.75:
                assert tree.delete(key) == oracle.delete(key)
            elif action < 0.85:
                assert tree.get(key) == oracle.get(key)
            else:
                lo, hi = sorted(rng.sample(range(len(keys)), 2))
                start, end = keys[lo], keys[hi]
                limit = rng.choice([None, 1, 5])
                ascending = rng.random() < 0.5
                assert tree.range(start, end, limit, ascending) == oracle.range(
                    start, end, limit, ascending
                )
                assert len(tree.range(start, end)) == len(oracle.range(start, end))
            if step % 500 == 250:
                engine.run_maintenance()
        assert list(tree.iter_range()) == list(oracle.iter_range())
        assert len(tree.range()) == len(oracle)

    def test_type_errors_match_ordered_map(self, engine):
        tree = engine.map("data")
        with pytest.raises(TypeError):
            tree.put("str-key", b"v")
        with pytest.raises(TypeError):
            tree.put(b"k", 42)
        with pytest.raises(ValueError):
            tree.range(limit=-1)


class TestFlushAndCompaction:
    def test_budget_bounds_memtable_bytes(self, engine):
        _fill(engine.map("data"), 500)
        # Every mutation that pushes past the budget triggers a flush, so
        # resident memtable bytes never stay above the configured budget.
        assert engine.memtable_bytes() <= engine.memtable_budget_bytes
        assert engine.flushes > 0
        # The log is reset on every flush.
        assert len(WriteAheadLog.replay(engine.wal.path).ops) < 500

    def test_flush_resets_wal_and_preserves_reads(self, engine):
        tree = engine.map("data")
        _fill(tree, 40)
        engine.flush()
        assert engine.wal.size_bytes() == 0
        assert engine.memtable_bytes() == 0
        assert tree.get(b"k0000") == b"v0"
        assert len(tree.range()) == 40

    def test_delete_of_flushed_key_needs_a_marker(self, engine):
        tree = engine.map("data")
        tree.put(b"k", b"v")
        engine.flush()
        assert tree.delete(b"k")
        assert tree.get(b"k") is None
        engine.flush()  # the marker must survive its own flush
        assert tree.get(b"k") is None
        assert list(tree.iter_range()) == []

    def test_delete_with_no_segments_pops_the_key(self, engine):
        """Nothing beneath the memtable to shadow: no marker, the key goes —
        out of the dict, the sorted index and the byte count alike."""
        tree = engine.map("data")
        for key in (b"m", b"z", b"c", b"a"):  # out of order
            tree.put(key, b"v")
        assert tree.range(limit=2) == [(b"a", b"v"), (b"c", b"v")]
        before = engine.memtable_bytes()
        assert tree.delete(b"c") and tree.delete(b"z")
        assert not tree.delete(b"c")
        assert engine.memtable_bytes() < before
        tree.put(b"b", b"v")
        live = [(b"a", b"v"), (b"b", b"v"), (b"m", b"v")]
        for ascending in (True, False):
            expected = live if ascending else live[::-1]
            assert tree.range(ascending=ascending) == expected
            assert tree.range(limit=2, ascending=ascending) == expected[:2]
        assert len(tree.range()) == 3
        engine.crash()
        engine.recover()  # WAL replay pops the same keys, segment-free still
        tree = engine.map("data")
        assert list(tree.iter_range()) == live
        engine.flush()  # and no marker was left behind to write
        assert tree.segments[0].entry_count == 3

    def test_maintenance_compacts_segment_runs(self, engine):
        tree = engine.map("data")
        # Rounds small enough to stay under the memtable budget, so each
        # explicit flush writes one same-sized (same-tier) segment.
        for round_index in range(6):
            _fill(tree, 20, prefix=f"r{round_index}-")
            engine.flush()
        assert len(tree.segments) >= engine.fanout
        assert engine.maintenance_backlog() > 0
        before = len(tree.segments)
        ran = engine.run_maintenance()
        assert ran > 0
        assert len(tree.segments) < before
        assert len(tree.range()) == 120

    def test_hard_cap_backstops_segment_growth(self, tmp_path):
        engine = LsmEngine(
            str(tmp_path / "node"), memtable_budget_bytes=256, fanout=2
        )
        try:
            tree = engine.map("data")
            rng = random.Random(5)
            for step in range(2000):
                key = f"k{rng.randrange(200):03d}".encode()
                tree.put(key, f"v{step}".encode())
            # Without a kernel draining the backlog the inline backstop
            # keeps the per-tree segment count bounded.
            assert len(tree.segments) <= engine.hard_segment_cap
            assert engine.compactions > 0
        finally:
            engine.close()

    def test_compaction_is_invisible_to_readers(self, engine):
        oracle = OrderedKVMap()
        tree = engine.map("data")
        rng = random.Random(9)
        for step in range(800):
            key = f"k{rng.randrange(80):03d}".encode()
            if rng.random() < 0.3 and oracle.get(key) is not None:
                tree.delete(key)
                oracle.delete(key)
            else:
                tree.put(key, f"v{step}".encode())
                oracle.put(key, f"v{step}".encode())
            if step % 100 == 99:
                engine.flush()
        while engine.run_maintenance():
            pass
        assert list(tree.iter_range()) == list(oracle.iter_range())


class TestCrashRecovery:
    def test_acked_writes_survive_crash(self, engine):
        tree = engine.map("data")
        _fill(tree, 120)  # crosses several flushes
        tree.delete(b"k0005")
        expected = [
            (f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(120) if i != 5
        ]
        engine.crash()
        with pytest.raises(RuntimeError):
            engine.map("data")
        info = engine.recover()
        assert info.segments_loaded + (1 if info.wal_records_replayed else 0) > 0
        assert list(engine.map("data").iter_range()) == expected

    def test_fresh_engine_restores_from_directory(self, tmp_path):
        path = str(tmp_path / "node")
        engine = LsmEngine(path, memtable_budget_bytes=2048)
        _fill(engine.map("data"), 100)
        engine.map("idx").put(b"i1", b"x")
        engine.close()  # clean shutdown flushes everything

        reborn = LsmEngine(path, memtable_budget_bytes=2048)
        try:
            assert reborn.gauges()["segment_count"] > 0
            assert reborn.wal_records_replayed == 0
            assert sorted(reborn.namespaces()) == ["data", "idx"]
            assert len(reborn.map("data").range()) == 100
            assert reborn.map("idx").get(b"i1") == b"x"
        finally:
            reborn.close()

    def test_torn_wal_tail_is_truncated_on_recovery(self, engine):
        tree = engine.map("data")
        tree.put(b"k1", b"v1")
        tree.put(b"k2", b"v2")
        engine.crash()
        with open(os.path.join(engine.data_dir, "wal.log"), "ab") as handle:
            handle.write(b"\x13\x37torn")
        info = engine.recover()
        assert info.wal_records_replayed == 2
        assert info.torn_tail_bytes_dropped == 6
        assert engine.map("data").get(b"k2") == b"v2"

    def test_partial_segment_is_discarded_and_covered_by_wal(self, engine):
        tree = engine.map("data")
        _fill(tree, 10)
        engine.crash()
        # A crash mid-flush leaves a file without a valid trailer.
        with open(os.path.join(engine.data_dir, "seg-00000099.seg"), "wb") as handle:
            handle.write(b"SEG1partial garbage")
        info = engine.recover()
        assert info.partial_segments_discarded == 1
        assert not os.path.exists(
            os.path.join(engine.data_dir, "seg-00000099.seg")
        )
        assert len(engine.map("data").range()) == 10

    def test_foreign_segment_namespace_is_recovered(self, tmp_path):
        # A valid segment present on disk (e.g. from a bulk load) is adopted
        # even when the WAL never mentions its namespace.
        path = str(tmp_path / "node")
        engine = LsmEngine(path)
        engine.close()
        write_segment(
            os.path.join(path, "seg-00000000.seg"), "loaded", [(b"a", b"1")]
        )
        reborn = LsmEngine(path)
        try:
            assert reborn.namespaces() == ["loaded"]
            assert reborn.map("loaded").get(b"a") == b"1"
        finally:
            reborn.close()

    def test_drop_namespace_survives_crash_replay(self, engine):
        # Only an earlier engine's log holds a drop (op 3), framed here the
        # same way.  Replaying it discards the namespace's runs and memtable;
        # the log's later records land on the emptied tree, and other
        # namespaces keep theirs.
        tree = engine.map("data")
        _fill(tree, 60)
        engine.flush()
        runs = [segment.path for segment in tree.segments]
        assert runs
        tree.put(b"k", b"v")
        engine.wal._append(OP_DROP_NAMESPACE, "data", (0).to_bytes(4, "big"))
        tree.put(b"after", b"1")
        engine.map("idx").put(b"i", b"x")
        engine.crash()
        engine.recover()
        assert list(engine.map("data").iter_range()) == [(b"after", b"1")]
        assert engine.map("idx").get(b"i") == b"x"
        assert not any(os.path.exists(path) for path in runs)

    def test_recovered_engine_keeps_generation_monotonic(self, engine):
        _fill(engine.map("data"), 60)
        engine.flush()
        gens_before = sorted(
            name for name in os.listdir(engine.data_dir) if name.endswith(".seg")
        )
        engine.crash()
        engine.recover()
        _fill(engine.map("data"), 60, prefix="x")
        engine.flush()
        gens_after = sorted(
            name for name in os.listdir(engine.data_dir) if name.endswith(".seg")
        )
        # New segments never reuse an existing generation number.
        assert set(gens_before) <= set(gens_after)
        assert len(gens_after) > len(gens_before)


class TestCommitPointDurability:
    """Under ``sync_writes`` a rename is durable before anything relies on it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every fsync / replace / remove / truncate, in order, by what it hit."""
        calls = []

        def recording(name, describe):
            real = getattr(os, name)

            def stand_in(*args):
                calls.append(describe(*args))
                return real(*args)

            monkeypatch.setattr(os, name, stand_in)

        def synced(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                return "fsync directory"
            return "fsync file"

        recording("fsync", synced)
        recording("replace", lambda src, dst: "replace " + os.path.basename(dst))
        recording("remove", lambda path: "remove " + os.path.basename(path))
        recording("ftruncate", lambda fd, size: "truncate log")
        return calls

    def _engine(self, tmp_path, sync_writes: bool) -> LsmEngine:
        return LsmEngine(
            str(tmp_path / "node"), memtable_budget_bytes=1 << 20, fanout=2,
            sync_writes=sync_writes,
        )

    def test_flush_syncs_the_directory_before_it_resets_the_log(self, tmp_path, calls):
        engine = self._engine(tmp_path, sync_writes=True)
        try:
            engine.map("data").put(b"k", b"v")
            engine.map("idx").put(b"k", b"v")
            del calls[:]
            engine.flush()
            assert calls == [
                "fsync file", "replace seg-00000000.seg",
                "fsync file", "replace seg-00000001.seg",
                "fsync directory",
                "truncate log", "fsync file",
            ]
        finally:
            engine.close()

    def test_compaction_syncs_the_directory_before_it_removes_its_inputs(
        self, tmp_path, calls
    ):
        engine = self._engine(tmp_path, sync_writes=True)
        try:
            for value in (b"1", b"2"):
                engine.map("data").put(b"k", value)
                engine.flush()
            del calls[:]
            assert engine.run_maintenance() == 1
            assert calls == [
                "fsync file", "replace seg-00000000.seg", "fsync directory",
                "remove seg-00000001.seg",
            ]
            del calls[:]
            engine.bulk_load("data", [(b"b", b"3")])
            assert calls[-3:] == [
                "fsync file", "replace seg-00000002.seg", "fsync directory",
            ]
        finally:
            engine.close()

    def test_without_sync_writes_no_directory_is_synced(self, tmp_path, calls):
        engine = self._engine(tmp_path, sync_writes=False)
        try:
            for value in (b"1", b"2"):
                engine.map("data").put(b"k", value)
                engine.flush()
            engine.run_maintenance()
            engine.bulk_load("data", [(b"b", b"3")])
            # The segment writer's own fsync-before-rename is all there is.
            assert calls.count("fsync file") == sum(
                1 for call in calls if call.startswith("replace")
            ) == 4
            assert "fsync directory" not in calls
        finally:
            engine.close()


class TestBulkLoad:
    def test_budgeted_bulk_load_spills_and_dedupes(self, tmp_path):
        # The bulk load sorts under the memtable's byte budget.
        engine = LsmEngine(str(tmp_path / "node"), memtable_budget_bytes=1024)
        rng = random.Random(21)
        pairs = []
        for i in range(2000):
            pairs.append((f"k{rng.randrange(500):04d}".encode(), f"v{i}".encode()))
        stored = engine.bulk_load("data", pairs)
        expected = dict(pairs)
        assert stored == len(expected)
        assert engine.bulk_spill_count > 0
        tree = engine.map("data")
        assert list(tree.iter_range()) == sorted(expected.items())
        # Scratch runs are cleaned up.
        spill_dir = os.path.join(engine.data_dir, "spill")
        assert not os.path.isdir(spill_dir) or not os.listdir(spill_dir)

    def test_bulk_load_is_durable_without_wal_traffic(self, tmp_path):
        path = str(tmp_path / "node")
        engine = LsmEngine(path)
        engine.bulk_load("data", [(b"a", b"1"), (b"b", b"2")])
        assert WriteAheadLog.replay(engine.wal.path).ops == []
        engine.crash()
        engine.recover()
        assert list(engine.map("data").iter_range()) == [(b"a", b"1"), (b"b", b"2")]
        engine.close()

    def test_bulk_load_lands_newest(self, engine):
        tree = engine.map("data")
        tree.put(b"k", b"old")
        engine.bulk_load("data", [(b"k", b"new")])
        assert tree.get(b"k") == b"new"
        # ...but later point writes still win over the loaded segment.
        tree.put(b"k", b"newer")
        assert tree.get(b"k") == b"newer"


class TestObservability:
    def test_gauges_cover_the_engine_lifecycle(self, engine):
        _fill(engine.map("data"), 200)
        gauges = engine.gauges()
        for name in (
            "memtable_bytes",
            "wal_bytes",
            "segment_count",
            "segment_bytes",
            "compaction_backlog",
            "flushes",
            "compactions",
            "recoveries",
            "wal_records_replayed",
            "torn_tail_bytes_dropped",
            "partial_segments_discarded",
        ):
            assert name in gauges
        assert gauges["segment_count"] > 0
        assert gauges["segment_bytes"] > 0
        assert gauges["flushes"] == engine.flushes

    def test_destroy_removes_the_directory(self, tmp_path):
        path = str(tmp_path / "node")
        engine = LsmEngine(path)
        engine.map("data").put(b"k", b"v")
        engine.destroy()
        assert not os.path.exists(path)
