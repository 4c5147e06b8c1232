"""Crash the LSM engine *inside* every step, at every call that changes a file.

The engine's durability argument is about orderings: log before memtable,
segment before log reset, merged run before its inputs go.  An ordering is
only as good as the instant between two of its calls, so this test visits
every such instant.  Stand-ins for ``os.write`` (the log's frames),
``os.replace``, ``os.remove``, ``os.ftruncate`` and the segment file's
``write`` copy the data directory before they act — and, for a frame, once
more between the two halves of a short write.  A copy holds what has reached
the operating system and none of the process's own buffers: exactly what a
process crash at that call leaves behind.

Every copy is then opened by a fresh engine and compared with a dict model
of the operations acknowledged before it was taken.  The operation in flight
may have happened or not; nothing else may differ.
"""

from __future__ import annotations

import copy
import os
import random
import re
import shutil
from typing import Dict, List, Tuple

import pytest

from repro.kvstore.engine import segment as segment_module
from repro.kvstore.engine.lsm import LsmEngine

ENGINE_OPTIONS = dict(memtable_budget_bytes=300, fanout=2, sparse_index_every=2)
Model = Dict[str, Dict[bytes, bytes]]
SEGMENT_FILE = re.compile(r"seg-\d{8}\.seg$")


def history(seed: int) -> List[Tuple]:
    """Puts, deletes of flushed keys, flushes, compactions from the bottom
    and a bulk load — each where it has something to break."""
    rng = random.Random(seed)
    keys = [b"k%02d" % index for index in range(12)]

    def put(namespace: str = "data") -> Tuple:
        # Values name the write they come from and vary in size.
        value = b"w%03d" % rng.randrange(1000) + b"." * rng.randrange(36)
        return ("put", namespace, rng.choice(keys), value)

    ops: List[Tuple] = [
        # A key in the oldest run, its marker in the next, then the merge
        # that drops the marker: the window PR 19's first finding sat in.
        ("put", "data", b"k00", b"old"), put(), ("flush",),
        ("delete", "data", b"k00"), put(), ("flush",),
        ("compact",),
    ]
    for step in range(1, 37):  # the small budget turns some of these into flushes
        ops.append(("delete", "data", rng.choice(keys)) if rng.random() < 0.3 else put())
        if step % 6 == 0:
            ops.append(("compact",))
    # A second namespace with runs on disk and a dirty memtable, so one
    # flush writes two segments.
    ops += [put("side") for _ in range(4)] + [("flush",)]
    ops += [put("side"), put("side"), put(), ("flush",), put("side")]
    ops.append(("bulk", "data", [(key, b"bulk") for key in keys[6:]]))
    ops += [put(), ("delete", "data", keys[7])]
    ops += [put("side"), put(), ("flush",), put(), put("side")]
    return ops


def apply_to_model(model: Model, op: Tuple) -> None:
    kind = op[0]
    if kind == "put":
        model.setdefault(op[1], {})[op[2]] = op[3]
    elif kind == "delete":
        model.get(op[1], {}).pop(op[2], None)
    elif kind == "bulk":
        model.setdefault(op[1], {}).update(op[2])


def apply_to_engine(engine: LsmEngine, op: Tuple) -> None:
    kind = op[0]
    if kind == "put":
        engine.map(op[1]).put(op[2], op[3])
    elif kind == "delete":
        engine.map(op[1]).delete(op[2])
    elif kind == "flush":
        engine.flush()
    elif kind == "compact":
        engine.run_maintenance(1)
    elif kind == "bulk":
        engine.bulk_load(op[1], op[2])


def contents(engine: LsmEngine) -> Model:
    """What the engine says it holds; the point-read path must agree."""
    found: Model = {}
    for namespace in engine.namespaces():
        tree = engine.map(namespace)
        pairs = dict(tree.iter_range())
        for index in range(12):
            key = b"k%02d" % index
            assert tree.get(key) == pairs.get(key), (namespace, key)
        if pairs:
            found[namespace] = pairs
    return found


def differences(found: Model, acknowledged: Model) -> List[str]:
    keys = {(ns, key) for model in (found, acknowledged) for ns in model for key in model[ns]}
    return [
        f"{ns}/{key!r}: recovered {found.get(ns, {}).get(key)!r}, "
        f"acknowledged {acknowledged.get(ns, {}).get(key)!r}"
        for ns, key in sorted(keys)
        if found.get(ns, {}).get(key) != acknowledged.get(ns, {}).get(key)
    ]


class CrashPoints:
    """Copies the data directory before each interposed call acts."""

    def __init__(self, data_dir: str, copies_dir: str):
        self.data_dir = data_dir
        self.copies_dir = copies_dir
        #: Operations acknowledged so far.
        self.acked = 0
        #: ``(call, copy's path, operations acknowledged before it)``.
        self.copies: List[Tuple[str, str, int]] = []
        self.armed = False
        self._half_written = False

    def copy(self, call: str) -> None:
        if not self.armed:
            return
        path = os.path.join(self.copies_dir, f"{len(self.copies):04d}")
        self.armed = False  # copying is not the engine's doing
        try:
            shutil.copytree(self.data_dir, path)
        finally:
            self.armed = True
        self.copies.append((call, path, self.acked))

    def install(self, monkeypatch) -> None:
        def copy_before(name: str) -> None:
            real = getattr(os, name)

            def stand_in(*args):
                self.copy(f"os.{name}")
                return real(*args)

            monkeypatch.setattr(os, name, stand_in)

        for name in ("replace", "remove", "ftruncate"):
            copy_before(name)

        real_write = os.write

        def short_write(fd: int, data: bytes) -> int:
            # Every frame goes out in two writes: the copy before the
            # second one holds a torn tail.
            self.copy("os.write (torn)" if self._half_written else "os.write")
            self._half_written = self.armed and not self._half_written and len(data) > 1
            return real_write(fd, data[: len(data) // 2] if self._half_written else data)

        monkeypatch.setattr(os, "write", short_write)

        points = self

        class SegmentFile:
            """The segment writer's file, copying before every ``write``."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, data: bytes) -> int:
                points.copy("segment write")
                return self._handle.write(data)

            def __getattr__(self, name: str):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._handle.__exit__(*exc)

        def open_segment_file(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            return SegmentFile(handle) if "w" in mode else handle

        monkeypatch.setattr(segment_module, "open", open_segment_file, raising=False)


@pytest.mark.parametrize("seed", [19, 23])
def test_every_crash_point_recovers_to_an_acknowledged_state(
    tmp_path, monkeypatch, seed
):
    data_dir = str(tmp_path / "node")
    copies_dir = str(tmp_path / "copies")
    os.makedirs(copies_dir)
    points = CrashPoints(data_dir, copies_dir)
    points.install(monkeypatch)
    engine = LsmEngine(data_dir, **ENGINE_OPTIONS)
    ops = history(seed)
    model: Model = {}
    #: ``states[n]``: the model once ``n`` operations are acknowledged.
    states: List[Model] = [{}]
    merged_from: List[int] = []  # position of each compacted run's oldest member
    compact_run = engine._compact_run
    engine._compact_run = lambda tree, i, j: merged_from.append(i) or compact_run(tree, i, j)
    points.armed = True
    for op in ops:
        apply_to_engine(engine, op)
        apply_to_model(model, op)
        points.acked += 1
        states.append(copy.deepcopy({ns: kv for ns, kv in model.items() if kv}))
    points.copy("end of history")
    points.armed = False
    assert contents(engine) == states[-1]
    # The history reached what it set out to reach.
    assert engine.flushes >= 6
    assert 0 in merged_from and max(merged_from) > 0  # markers dropped, and kept
    calls = {call for call, _path, _acked in points.copies}
    assert calls >= {
        "os.write", "os.write (torn)", "os.replace", "os.remove",
        "os.ftruncate", "segment write", "end of history",
    }
    engine.crash()

    failures = []
    outcomes = set()
    torn_seen = 0
    for call, path, acked in points.copies:
        torn_segments = [n for n in os.listdir(path) if n.endswith(".seg.tmp")]
        recovered = LsmEngine(path, **ENGINE_OPTIONS)
        try:
            found = contents(recovered)
        finally:
            recovered.crash()
        # Recovery leaves the log and committed runs, nothing else.
        left = [
            name for name in os.listdir(path)
            if name != "wal.log" and not SEGMENT_FILE.match(name)
        ]
        if left:
            failures.append(
                f"crash at {call} (copy {os.path.basename(path)}): recovery "
                f"left {left} behind"
            )
        torn_seen += len(torn_segments)
        in_flight = ops[acked] if acked < len(ops) else None
        allowed = states[acked : acked + 2]
        if found in allowed:
            outcomes.add(allowed.index(found))
        else:
            failures.append(
                f"crash at {call} (copy {os.path.basename(path)}) during "
                f"operation {acked} {in_flight!r}; against the state before it: "
                f"{differences(found, allowed[0])}"
            )
    assert not failures, (
        f"{len(failures)} of {len(points.copies)} crash points lost or "
        f"resurrected data; the first:\n{failures[0]}"
    )
    assert outcomes == {0, 1}  # both "not yet" and "already" were seen
    assert torn_seen  # some copy did hold a half-written segment
