"""A write followed by a range costs the same at any data size (ROADMAP 5f).

PIQL admits an operation because its cost does not grow with the data; the
host should not quietly break that.  Black-box and free of wall-clock
thresholds: the same 300 cycles of (insert one new key in the middle, read
ten keys from there) run on a store preloaded with 1 000 keys and on one
with 64 000, and only the *ratio* of their CPU times is checked.  A store
that re-derives its key order after a write (``sorted(all keys)``) gives a
ratio of 35-65; one that keeps it gives 1-4 (the memmove under one
``insort``).
"""

from __future__ import annotations

import time

import pytest

from repro.kvstore.engine.lsm import LsmEngine
from repro.kvstore.memory import OrderedKVMap

SMALL, LARGE = 1_000, 64_000
CYCLES = 300
MAX_RATIO = 8.0


def _cycles_cpu_seconds(store, preload: int) -> float:
    for number in range(preload):
        store.put(b"k%09d" % (number * 1000), b"v")
    store.range(limit=1)  # the bulk load's one sort is not what is measured
    middle = (preload // 2) * 1000
    start = b"k%09d" % middle
    began = time.process_time()
    for offset in range(1, CYCLES + 1):
        store.put(b"k%09d" % (middle + offset), b"v")
        assert len(store.range(start, None, limit=10)) == 10
    return time.process_time() - began


@pytest.fixture(params=["ordered_map", "lsm_memtable"])
def new_store(request, tmp_path):
    """A factory of empty stores of one kind; engines are destroyed after."""
    engines = []

    def make():
        if request.param == "ordered_map":
            return OrderedKVMap()
        # Budget far above the preload: every key stays in the memtable.
        engines.append(
            LsmEngine(str(tmp_path / str(len(engines))), memtable_budget_bytes=1 << 30)
        )
        return engines[-1].map("data")

    yield make
    for engine in engines:
        engine.destroy()


def test_write_then_range_cost_does_not_grow_with_the_data(new_store):
    ratios = []
    for _ in range(2):  # a loaded box gets one retry, not a flake
        large = _cycles_cpu_seconds(new_store(), LARGE)
        ratios.append(large / _cycles_cpu_seconds(new_store(), SMALL))
        if ratios[-1] < MAX_RATIO:
            return
    pytest.fail(f"CPU-time ratio 64k/1k keys was {ratios}, limit {MAX_RATIO}")
