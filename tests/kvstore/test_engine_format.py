"""The on-disk format is pinned by files an earlier engine wrote.

``fixtures/engine_v1/`` holds a data directory — three segments and a
write-ahead log with records still in it — written by :func:`write_history`
running on the commit *before* the engine went block-at-a-time (one
``write`` per entry piece, a buffered log).  Today's engine must read it
(old files open and replay), and must write the very same bytes for the
same history (so the old engine reads today's files: they are its own).

The earlier engine could drop a namespace, which it logged as WAL op 3;
today's engine only replays that op.  :func:`write_history` appends the
fixture's op-3 frame itself, laid out as :mod:`repro.kvstore.engine.wal`
documents a record.

Regenerate (only when the format is meant to change)::

    PYTHONPATH=src python tests/kvstore/test_engine_format.py
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib

from repro.kvstore.engine.lsm import LsmEngine

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "engine_v1")
OPTIONS = dict(memtable_budget_bytes=1 << 20, fanout=4, sparse_index_every=4)


def drop_namespace_frame(namespace: str) -> bytes:
    """A WAL record of op 3: ``crc | len | op | ns_len | ns | key_len=0``."""
    ns = namespace.encode("utf-8")
    payload = b"\x03" + struct.pack(">H", len(ns)) + ns + struct.pack(">I", 0)
    return struct.pack(">II", zlib.crc32(payload), len(payload)) + payload


def write_history(data_dir: str) -> None:
    """Two flushed runs (the second with a delete marker), a bulk load, then
    unflushed puts, a delete and a namespace drop in the log."""
    engine = LsmEngine(data_dir, **OPTIONS)
    data = engine.map("data")
    for index in range(10):
        data.put(b"k%02d" % index, b"first-%d" % index * (index + 1))
    engine.flush()
    data.delete(b"k03")
    data.put(b"k04", b"")
    data.put(b"k10", bytes(range(256)))
    engine.flush()
    engine.bulk_load(
        "loaded",
        [(b"b%03d" % (index * 7 % 50), b"v%d" % index) for index in range(50)],
    )
    engine.map("gone").put(b"x", b"y")
    data.put(b"k11", b"in the log")
    data.put(b"k00", b"overwritten in the log")
    data.delete(b"k01")
    engine.crash()  # no flush: the log keeps its records
    with open(os.path.join(data_dir, "wal.log"), "ab") as log:
        log.write(drop_namespace_frame("gone"))


def expected() -> dict:
    data = {b"k%02d" % index: b"first-%d" % index * (index + 1) for index in range(10)}
    del data[b"k03"], data[b"k01"]
    data.update({
        b"k04": b"", b"k10": bytes(range(256)), b"k11": b"in the log",
        b"k00": b"overwritten in the log",
    })
    return {
        "data": data,
        "loaded": {b"b%03d" % (index * 7 % 50): b"v%d" % index for index in range(50)},
    }


def test_files_of_the_earlier_engine_open_and_replay(tmp_path):
    data_dir = str(tmp_path / "node")
    shutil.copytree(FIXTURE, data_dir)
    engine = LsmEngine(data_dir, **OPTIONS)
    try:
        assert engine.gauges()["segment_count"] == 3
        assert engine.wal_records_replayed == 5
        assert engine.torn_tail_bytes_dropped == 0
        found = {
            namespace: dict(engine.map(namespace).iter_range())
            for namespace in engine.namespaces()
        }
        assert found == {**expected(), "gone": {}}
        for namespace, pairs in expected().items():
            for key, value in pairs.items():
                assert engine.map(namespace).get(key) == value
        assert engine.map("data").get(b"k03") is None
        assert engine.map("data").range(b"k02", None, 3) == [
            (b"k02", b"first-2" * 3), (b"k04", b""), (b"k05", b"first-5" * 6),
        ]
    finally:
        engine.crash()


def test_the_same_history_writes_the_same_bytes(tmp_path):
    data_dir = str(tmp_path / "node")
    write_history(data_dir)
    names = sorted(name for name in os.listdir(FIXTURE))
    assert names == sorted(
        name for name in os.listdir(data_dir) if name != "spill"
    )
    for name in names:
        with open(os.path.join(FIXTURE, name), "rb") as old:
            with open(os.path.join(data_dir, name), "rb") as new:
                assert new.read() == old.read(), name


if __name__ == "__main__":
    shutil.rmtree(FIXTURE, ignore_errors=True)
    write_history(FIXTURE)
    shutil.rmtree(os.path.join(FIXTURE, "spill"), ignore_errors=True)
    print(f"wrote {sorted(os.listdir(FIXTURE))} to {FIXTURE}")
