"""Unit tests for the engine write-ahead log (framing, replay, torn tails)."""

import os
import shutil

import pytest

from repro.kvstore.engine.wal import (
    OP_DELETE,
    OP_DROP_NAMESPACE,
    OP_PUT,
    WriteAheadLog,
)


@pytest.fixture
def wal_path(tmp_path) -> str:
    return str(tmp_path / "wal.log")


class TestAppendReplay:
    def test_replay_returns_ops_in_order(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put("data", b"k1", b"v1")
        wal.append_delete("data", b"k2")
        # Op 3 (a namespace drop) is only ever read from an earlier
        # engine's log; this one frames it the same way.
        wal._append(OP_DROP_NAMESPACE, "other", (0).to_bytes(4, "big"))
        wal.append_put("data", b"k1", b"v2")
        wal.close()

        replay = WriteAheadLog.replay(wal_path)
        assert replay.ops == [
            (OP_PUT, "data", b"k1", b"v1"),
            (OP_DELETE, "data", b"k2", b""),
            (OP_DROP_NAMESPACE, "other", b"", b""),
            (OP_PUT, "data", b"k1", b"v2"),
        ]
        assert replay.torn_bytes == 0
        assert replay.good_offset == os.path.getsize(wal_path)

    def test_empty_and_missing_logs_replay_empty(self, wal_path):
        assert WriteAheadLog.replay(wal_path).ops == []
        WriteAheadLog(wal_path).close()
        assert WriteAheadLog.replay(wal_path).ops == []

    def test_reset_empties_the_log(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_put("data", b"a", b"1")
        wal.append_put("data", b"b", b"2")
        assert len(WriteAheadLog.replay(wal_path).ops) == 2
        assert wal.size_bytes() > 0
        wal.reset()
        assert WriteAheadLog.replay(wal_path).ops == []
        assert wal.size_bytes() == 0
        wal.append_delete("data", b"a")
        wal.close()
        assert len(WriteAheadLog.replay(wal_path).ops) == 1

    def test_binary_keys_and_values_roundtrip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        key = bytes(range(256))
        value = b"\x00" * 100 + b"\xff" * 100
        wal.append_put("ns", key, value)
        wal.append_put("ns", b"", b"")
        wal.close()
        replay = WriteAheadLog.replay(wal_path)
        assert replay.ops == [
            (OP_PUT, "ns", key, value),
            (OP_PUT, "ns", b"", b""),
        ]


class TestTornTail:
    def _write_three(self, wal_path) -> int:
        wal = WriteAheadLog(wal_path)
        for index in range(3):
            wal.append_put("data", f"k{index}".encode(), f"v{index}".encode())
        wal.close()
        return os.path.getsize(wal_path)

    def test_partial_final_frame_is_dropped_and_truncated(self, wal_path):
        size = self._write_three(wal_path)
        # Simulate a crash mid-append: half a frame of garbage at the tail.
        with open(wal_path, "ab") as handle:
            handle.write(b"\x00\x01\x02garbage")
        replay = WriteAheadLog.replay(wal_path)
        assert [op[2] for op in replay.ops] == [b"k0", b"k1", b"k2"]
        assert replay.torn_bytes == 10
        # The tail was truncated back to the last good record.
        assert os.path.getsize(wal_path) == size
        assert WriteAheadLog.replay(wal_path).torn_bytes == 0

    def test_truncated_final_frame_is_dropped(self, wal_path):
        size = self._write_three(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 3)
        replay = WriteAheadLog.replay(wal_path)
        assert [op[2] for op in replay.ops] == [b"k0", b"k1"]
        assert replay.torn_bytes > 0

    def test_corrupt_crc_stops_replay_at_the_tear(self, wal_path):
        self._write_three(wal_path)
        # Flip a payload byte of the second record: its CRC check fails, so
        # replay keeps only the first record (everything after the tear is
        # unacknowledged by definition).
        with open(wal_path, "r+b") as handle:
            data = handle.read()
            handle.seek(len(data) // 2)
            original = handle.read(1)
            handle.seek(len(data) // 2)
            handle.write(bytes([original[0] ^ 0xFF]))
        replay = WriteAheadLog.replay(wal_path)
        assert len(replay.ops) < 3
        assert replay.torn_bytes > 0

    def test_truncate_can_be_disabled(self, wal_path):
        size = self._write_three(wal_path)
        with open(wal_path, "ab") as handle:
            handle.write(b"tail")
        WriteAheadLog.replay(wal_path, truncate_torn_tail=False)
        assert os.path.getsize(wal_path) == size + 4


class TestShortWrites:
    """A frame is one ``os.write``; the kernel may take only part of it."""

    def test_a_short_write_is_completed_and_its_middle_is_a_torn_tail(
        self, tmp_path, monkeypatch
    ):
        real_write = os.write
        sizing = WriteAheadLog(str(tmp_path / "sizing.log"))
        sizing.append_put("data", b"k2", b"v2")
        frame_bytes = sizing.size_bytes()
        sizing.close()
        for cut in range(1, frame_bytes):
            wal_path = str(tmp_path / f"wal-{cut}.log")
            torn_path = wal_path + ".crashed"
            calls = []

            def short_write(fd, data):
                calls.append(len(data))
                if len(calls) == 1:
                    return real_write(fd, data[:cut])
                # Between the two writes: what a crash here leaves behind.
                shutil.copyfile(wal_path, torn_path)
                return real_write(fd, data)

            wal = WriteAheadLog(wal_path)
            wal.append_put("data", b"k1", b"v1")
            monkeypatch.setattr(os, "write", short_write)
            wal.append_put("data", b"k2", b"v2")
            monkeypatch.setattr(os, "write", real_write)
            wal.append_delete("data", b"k1")
            wal.close()
            assert calls == [frame_bytes, frame_bytes - cut]
            assert WriteAheadLog.replay(wal_path).ops == [
                (OP_PUT, "data", b"k1", b"v1"),
                (OP_PUT, "data", b"k2", b"v2"),
                (OP_DELETE, "data", b"k1", b""),
            ]
            torn = WriteAheadLog.replay(torn_path)
            assert torn.ops == [(OP_PUT, "data", b"k1", b"v1")]
            assert torn.torn_bytes == cut

    def test_an_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(OSError):
            wal.append_put("data", b"k", b"v")
