"""Clocks, counters and summary statistics the workloads share.

Host time is read here and nowhere else: ``time.process_time`` for
core-seconds, ``time.perf_counter`` for wall-seconds.

**Steady host time.**  The boxes this runs on are a few cores of a shared
host whose speed moves in steps (the same 0.5 ms compute loop reads 0.45,
0.6, 0.74 or 0.95 ms, each level held for seconds to minutes), so a raw
timing says as much about the neighbours as about the program.  A timed
region is therefore cut into *slices* of some tens of milliseconds at
points fixed by the workload's content, and the state probe
(:func:`state_probe_s`) is timed at every cut.  :func:`steady` rescales each
slice to what it would have cost had the probe read
:data:`PROBE_REFERENCE_S`; :func:`floor_sum` then takes, slice by slice,
the lower-quartile replay.  Evidence and the model are in README.md; the
raw timings stay in the detail file and in ``host.raw_throughput_per_core_s``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Iterations of the state probe's loop (about 0.5 ms).
PROBE_ROUNDS = 4000
#: The probe reading every slice is rescaled to: the builder's box in its
#: common fast state.  A constant, so runs on one host stay comparable.
PROBE_REFERENCE_S = 0.0005
#: Share of the program's host time that scales with the probe (the rest —
#: memory stalls — does not): the value that minimises the spread of
#: replays of identical work on the builder's box (``run.py --calibrate``).
CORE_BOUND_SHARE = 0.7


def state_probe_s() -> float:
    """Time a small fixed compute loop: how fast the core is right now."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ROUNDS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += (i * 7) % 13
    return time.perf_counter() - started


def steady(durations: Sequence[float], probes: Sequence[float],
           share: float = CORE_BOUND_SHARE) -> List[float]:
    """Each slice's duration at the reference machine state.

    Model: a slice costs ``memory + core * slowdown`` where ``slowdown`` is
    the probe's reading over its reference and ``share`` is the core-bound
    part at the reference.  The slower of the two probes around a slice
    stands for the slice.  Without probes the durations come back as is.
    """
    if len(probes) != len(durations) + 1:
        return list(durations)
    return [
        duration / (1.0 - share + share * max(before, after) / PROBE_REFERENCE_S)
        for duration, before, after in zip(durations, probes, probes[1:])
    ]


def floor_sum(replays: Sequence[Sequence[float]]) -> float:
    """Sum over slices of the lower-quartile replay of each slice.

    ``replays`` are slice durations of repetitions of identical work, cut
    at identical points.  Interference only ever adds time, so the low end
    of each slice's replays is the program's own cost; the lower quartile
    (not the minimum) keeps one lucky reading from setting the figure.
    """
    rank = len(replays) // 4
    return sum(sorted(column)[rank] for column in zip(*replays))


class Meter:
    """Times one region on both host clocks.

    With ``sliced`` the region is cut wherever :meth:`mark` is called and
    the state probe is timed at both ends and at every cut, outside the
    slices; ``wall_s`` / ``core_s`` are then the slices' sums.

    With a span recorder it also notes which spans fall inside the region
    and covers the region with one root span of the ``harness`` layer, so
    the benchmark's own load generator is a line of the ledger and not a
    hole in it; with a profiler it profiles exactly the region.
    """

    def __init__(self, recorder: Any = None, profiler: Any = None,
                 name: str = "harness.run", sliced: bool = False):
        self.recorder = recorder
        self.profiler = profiler
        self.name = name
        self.sliced = sliced
        self.wall_s = 0.0
        self.core_s = 0.0
        self.walls: List[float] = []
        self.cores: List[float] = []
        self.probes: List[float] = []
        self.first_span = 0
        self.last_span = 0

    def __enter__(self) -> "Meter":
        # Garbage of earlier phases is collected outside the region, so a
        # repetition is not billed for its predecessor's leftovers.
        gc.collect()
        if self.recorder is not None:
            self.first_span = len(self.recorder)
            self._root = self.recorder.open(self.name, "harness")
        if self.profiler is not None:
            self.profiler.enable()
        if self.sliced:
            self.probes.append(state_probe_s())
        self._wall = time.perf_counter()
        self._core = time.process_time()
        return self

    def _close_slice(self) -> None:
        core = time.process_time()
        wall = time.perf_counter()
        self.cores.append(core - self._core)
        self.walls.append(wall - self._wall)
        if self.sliced:
            self.probes.append(state_probe_s())

    def mark(self) -> None:
        """End one slice and start the next (no-op unless ``sliced``)."""
        if not self.sliced:
            return
        self._close_slice()
        self._wall = time.perf_counter()
        self._core = time.process_time()

    def __exit__(self, *exc: Any) -> None:
        self._close_slice()
        self.core_s = sum(self.cores)
        self.wall_s = sum(self.walls)
        if self.profiler is not None:
            self.profiler.disable()
        if self.recorder is not None:
            self.recorder.close(self._root)
            self.last_span = len(self.recorder)

    def steady_walls(self, share: float = CORE_BOUND_SHARE) -> List[float]:
        return steady(self.walls, self.probes, share)

    def steady_cores(self, share: float = CORE_BOUND_SHARE) -> List[float]:
        return steady(self.cores, self.probes, share)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = math.ceil(len(ordered) * fraction)
    return float(ordered[min(max(rank, 1), len(ordered)) - 1])


def tail_fraction(samples: int) -> float:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for fraction in (0.99, 0.95, 0.90):
        if samples * (1.0 - fraction) >= 10:
            return fraction
    return 0.90


def digest(parts: Iterable[Any]) -> str:
    """sha256 over the ``repr`` of every part (floats keep all their digits)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode("utf-8"))
        sha.update(b"\x1f")
    return sha.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_io() -> Optional[Dict[str, int]]:
    """This process's ``/proc/self/io`` counters; ``None`` where absent."""
    try:
        with open("/proc/self/io", "r", encoding="ascii") as handle:
            return {
                key: int(value)
                for key, value in (line.split(":") for line in handle)
            }
    except (OSError, ValueError):
        return None


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total
