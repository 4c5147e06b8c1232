"""``LsmTree`` against a dict, through generated histories.

The tree's answer must not depend on where its state happens to lie —
memtable, WAL, how many segments, whether a compaction or a crash came
between.  Histories mix puts, deletes (which leave engine-level markers once
a segment exists), flushes, compactions and crash+recover; every read the
map surface offers is then compared with a plain dict: ``get`` of every key,
and ``range`` in both directions with ``limit`` None/0/1/k and bounds on,
between and outside the keys.

Keys are short strings over ``{0x00, a, b, 0xff}``, so they prefix each
other and ``key + b"\\x00"`` — the exact point a limited range resumes from
after a short pass — is itself a key.  Values may be empty, which is a live
value and not a delete.  Small memtable budget, sparse index of 2 and fanout
2 make flushes, multi-block segments and compactions ordinary events.
"""

from __future__ import annotations

import itertools
import tempfile
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.engine.lsm import LsmEngine

NAMESPACE = "data"
_ALPHABET = (b"\x00", b"a", b"b", b"\xff")
KEYS: List[bytes] = [
    b"".join(letters)
    for length in (1, 2, 3)
    for letters in itertools.product(_ALPHABET, repeat=length)
]
#: Range bounds: every key, plus strings that fall between and beyond them.
BOUNDS: List[Optional[bytes]] = [None, b"", b"a\x01", b"ab\x00\x00", b"b~", b"\xff\xff\xff\xff", *KEYS]
LIMITS = (None, 0, 1, 2, 5, 100)

key = st.sampled_from(KEYS)
#: A narrow band of keys: flushing after writing only these gives runs whose
#: key bounds are disjoint from each other.
band = st.sampled_from(_ALPHABET)
step = st.one_of(
    st.tuples(st.just("put"), key, st.binary(max_size=6)),
    st.tuples(st.just("put"), key, st.binary(max_size=6)),
    st.tuples(st.just("delete"), key),
    st.tuples(st.just("band"), band, st.binary(max_size=3)),
    st.tuples(st.just("delete_band"), band),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("crash")),
    st.tuples(
        st.just("range"),
        st.sampled_from(BOUNDS),
        st.sampled_from(BOUNDS),
        st.sampled_from(LIMITS),
        st.booleans(),
    ),
)


def expected_range(
    model: Dict[bytes, bytes],
    start: Optional[bytes],
    end: Optional[bytes],
    limit: Optional[int],
    ascending: bool,
) -> List[Tuple[bytes, bytes]]:
    keys = sorted(
        k for k in model
        if (start is None or k >= start) and (end is None or k < end)
    )
    if not ascending:
        keys.reverse()
    return [(k, model[k]) for k in keys[:limit]]


def check_everything(tree, model: Dict[bytes, bytes]) -> None:
    for k in KEYS:
        assert tree.get(k) == model.get(k), k
    assert list(tree.iter_range()) == sorted(model.items())
    assert len(tree.range()) == len(model)
    for ascending in (True, False):
        for limit in LIMITS:
            assert tree.range(None, None, limit, ascending) == expected_range(
                model, None, None, limit, ascending
            ), (limit, ascending)


@settings(max_examples=120, deadline=None)
@given(st.lists(step, min_size=1, max_size=60))
def test_tree_matches_dict(steps) -> None:
    model: Dict[bytes, bytes] = {}
    with tempfile.TemporaryDirectory(prefix="lsm-model-") as data_dir:
        engine = LsmEngine(
            data_dir, memtable_budget_bytes=400, fanout=2, sparse_index_every=2
        )
        try:
            for entry in steps:
                tree = engine.map(NAMESPACE)
                kind = entry[0]
                if kind == "put":
                    tree.put(entry[1], entry[2])
                    model[entry[1]] = entry[2]
                elif kind == "delete":
                    assert tree.delete(entry[1]) == (model.pop(entry[1], None) is not None)
                elif kind == "band":
                    for k in KEYS:
                        if k.startswith(entry[1]) and len(k) > 1:
                            tree.put(k, entry[2])
                            model[k] = entry[2]
                    engine.flush()
                elif kind == "delete_band":
                    for k in KEYS:
                        if k.startswith(entry[1]):
                            assert tree.delete(k) == (model.pop(k, None) is not None)
                elif kind == "flush":
                    engine.flush()
                elif kind == "compact":
                    engine.run_maintenance()
                elif kind == "crash":
                    engine.crash()
                    engine.recover()
                else:
                    _, start, end, limit, ascending = entry
                    assert tree.range(start, end, limit, ascending) == expected_range(
                        model, start, end, limit, ascending
                    ), entry
                # The engine's running total is the sum it replaced.
                assert engine.memtable_bytes() == sum(
                    t.mem_bytes for t in engine._trees.values()
                )
            check_everything(engine.map(NAMESPACE), model)
            engine.crash()
            engine.recover()
            check_everything(engine.map(NAMESPACE), model)
        finally:
            engine.close()


class TestLimitedRangeExamples:
    """The cases the generated histories are meant to reach, spelled out."""

    def _engine(self, tmp_path) -> LsmEngine:
        return LsmEngine(
            str(tmp_path / "node"), memtable_budget_bytes=1 << 20,
            fanout=2, sparse_index_every=2,
        )

    def test_limit_zero_is_empty(self, tmp_path):
        engine = self._engine(tmp_path)
        try:
            tree = engine.map(NAMESPACE)
            tree.put(b"a", b"1")
            assert tree.range(limit=0) == []
            engine.flush()
            assert tree.range(limit=0) == []
            assert tree.range(limit=0, ascending=False) == []
        finally:
            engine.close()

    def test_marker_led_runs_do_not_starve_the_result(self, tmp_path):
        """Every run's first ``limit`` entries are shadowed: the range must
        carry on past the horizon, not return short."""
        engine = self._engine(tmp_path)
        try:
            tree = engine.map(NAMESPACE)
            keys = [b"k%02d" % index for index in range(12)]
            for k in keys:
                tree.put(k, b"old")
            engine.flush()
            for k in keys[:9]:
                tree.delete(k)  # markers, in the memtable
            assert tree.range(limit=1) == [(keys[9], b"old")]
            assert tree.range(limit=2) == [(keys[9], b"old"), (keys[10], b"old")]
            engine.flush()  # ... and in a segment of their own
            assert tree.range(limit=1) == [(keys[9], b"old")]
            for k in keys[3:]:
                tree.put(k, b"new")
            for k in keys[8:]:
                tree.delete(k)
            assert tree.range(limit=1, ascending=False) == [(keys[7], b"new")]
            assert tree.range(keys[1], keys[11], 3, ascending=False) == [
                (keys[7], b"new"), (keys[6], b"new"), (keys[5], b"new"),
            ]
        finally:
            engine.close()

    def test_resume_point_is_a_key(self, tmp_path):
        """A pass resumes at ``horizon + 0x00``; that string can be stored."""
        engine = self._engine(tmp_path)
        try:
            tree = engine.map(NAMESPACE)
            for k in (b"a", b"a\x00", b"a\x00\x00", b"b"):
                tree.put(k, b"v")
            engine.flush()
            tree.delete(b"a")
            assert tree.range(limit=1) == [(b"a\x00", b"v")]
            assert tree.range(limit=3) == [
                (b"a\x00", b"v"), (b"a\x00\x00", b"v"), (b"b", b"v"),
            ]
        finally:
            engine.close()

    def test_newest_run_wins_inside_a_chunk(self, tmp_path):
        engine = self._engine(tmp_path)
        try:
            tree = engine.map(NAMESPACE)
            for generation in range(4):
                for index in range(6):
                    if (index + generation) % 2:
                        tree.put(b"k%d" % index, b"g%d" % generation)
                engine.flush()
            tree.put(b"k2", b"")  # an empty value is live
            model = {
                b"k0": b"g3", b"k1": b"g2", b"k2": b"", b"k3": b"g2",
                b"k4": b"g3", b"k5": b"g2",
            }
            for limit in (1, 2, 3, 6, 7):
                for ascending in (True, False):
                    assert tree.range(None, None, limit, ascending) == expected_range(
                        model, None, None, limit, ascending
                    )
        finally:
            engine.close()
