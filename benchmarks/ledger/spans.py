"""Spans recorded from the benchmark's own files, and the ledger they sum to.

For the traced pass only, :func:`install` replaces the public entry points
of each layer (the targets ``adapter.resolve_targets`` found) with a thin
wrapper that records one span per call: name, layer, start, end, parent,
and the unit of work (interaction / kv op) it belongs to.  Spans live in
compact arrays until the run ends.  :func:`uninstall` puts every original
function back, so the untraced passes run the program untouched.

A span's *self time* is its duration minus the part covered by its child
spans.  The program is single-threaded and synchronous, so children never
overlap and the self times of all spans under a root add up to that root's
duration exactly.  The timed region's root is a span of the benchmark's
own (layer ``harness``: the load generator), so the ledger sums by
construction, and ``ledger.closure_error`` compares that sum with the
region as the untraced clock (``perf_counter``) timed it.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Recorder:
    """In-memory span store: parallel arrays indexed by span number.

    Spans are appended at entry, so span numbers are in start order and a
    parent always has a smaller number than its children.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self.layers: List[str] = []
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.units = array("i")
        self.stack: List[int] = []
        #: Unit of work currently open (-1 outside any) and units seen.
        self.unit = -1
        self.units_started = 0

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str, layer: str) -> int:
        """Start a span by hand (the harness's own root span)."""
        if name not in self.names:
            self.register(name, layer)
        index = len(self.starts)
        self.name_ids.append(self.names.index(name))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.units.append(self.unit)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    def duration(self, index: int) -> int:
        return self.ends[index] - self.starts[index]

    def wrap(self, function: Callable, name_id: int, unit_root: bool) -> Callable:
        """The span-recording replacement for ``function``."""
        clock = self.clock
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, units, stack = self.parents, self.units, self.stack
        recorder = self

        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            units.append(recorder.unit)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        def unit_span(*args: Any, **kwargs: Any) -> Any:
            if recorder.unit >= 0:
                return span(*args, **kwargs)
            recorder.unit = recorder.units_started
            recorder.units_started += 1
            try:
                return span(*args, **kwargs)
            finally:
                recorder.unit = -1

        chosen = unit_span if unit_root else span
        chosen.__wrapped__ = function  # type: ignore[attr-defined]
        chosen.__name__ = getattr(function, "__name__", "span")
        chosen.__qualname__ = getattr(function, "__qualname__", chosen.__name__)
        return chosen


Patch = Tuple[Any, str, Any]


def install(
    recorder: Recorder,
    targets: Iterable[Tuple[str, str, Any, str, Callable]],
    unit_roots: Sequence[str] = (),
    aliases_of: Optional[Callable[[Callable], Iterable[Tuple[Any, str]]]] = None,
) -> List[Patch]:
    """Wrap every target; returns the patches :func:`uninstall` reverts.

    A method is replaced in its class ``__dict__``.  A plain function is
    replaced in its module and in every module that imported it by name
    (``aliases_of`` finds those), since ``from x import f`` copies the
    reference.
    """
    patches: List[Patch] = []
    for layer, name, owner, attribute, function in targets:
        wrapper = recorder.wrap(
            function, recorder.register(name, layer), name in unit_roots
        )
        holders = [(owner, attribute)]
        if aliases_of is not None and not isinstance(owner, type):
            holders = list(aliases_of(function)) or holders
        for holder, holder_attribute in holders:
            patches.append((holder, holder_attribute, function))
            setattr(holder, holder_attribute, wrapper)
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Put every original function back (class ``__dict__`` as it was)."""
    for holder, attribute, original in reversed(patches):
        setattr(holder, attribute, original)
    patches.clear()


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def self_times(
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
    first: int = 0,
    last: Optional[int] = None,
) -> Tuple[List[int], int]:
    """Self time of each span in ``[first, last)`` and the roots' total.

    ``self[i] = duration[i] - sum(duration of i's direct children)``.  A
    span whose parent lies before ``first`` counts as a root of the window.
    Integer nanoseconds in, integer nanoseconds out: ``sum(self) == total``
    holds exactly.
    """
    last = len(starts) if last is None else last
    own = [0] * (last - first)
    total = 0
    for index in range(first, last):
        duration = ends[index] - starts[index]
        own[index - first] += duration
        parent = parents[index]
        if parent >= first:
            own[parent - first] -= duration
        else:
            total += duration
    return own, total


def ledger(
    recorder: Recorder, first: int = 0, last: Optional[int] = None
) -> Dict[str, Any]:
    """Per-name and per-layer self time (ns) and call counts of a window."""
    last = len(recorder) if last is None else last
    own, total = self_times(
        recorder.starts, recorder.ends, recorder.parents, first, last
    )
    by_name_ns = [0] * len(recorder.names)
    by_name_calls = [0] * len(recorder.names)
    name_ids = recorder.name_ids
    for offset, nanoseconds in enumerate(own):
        name_id = name_ids[first + offset]
        by_name_ns[name_id] += nanoseconds
        by_name_calls[name_id] += 1
    layers: Dict[str, Dict[str, int]] = {}
    names: Dict[str, Dict[str, Any]] = {}
    for name_id, name in enumerate(recorder.names):
        if not by_name_calls[name_id]:
            continue
        layer = recorder.layers[name_id]
        names[name] = {
            "layer": layer,
            "self_ns": by_name_ns[name_id],
            "calls": by_name_calls[name_id],
        }
        entry = layers.setdefault(layer, {"self_ns": 0, "calls": 0})
        entry["self_ns"] += by_name_ns[name_id]
        entry["calls"] += by_name_calls[name_id]
    return {"total_ns": total, "layers": layers, "names": names,
            "spans": last - first}


def indices_of(recorder: Recorder, wanted: Sequence[str], first: int = 0,
               last: Optional[int] = None) -> Dict[str, List[int]]:
    """Span numbers of every call of each wanted name in a window (one pass)."""
    last = len(recorder) if last is None else last
    by_id = {recorder.names.index(name): [] for name in wanted
             if name in recorder.names}
    name_ids = recorder.name_ids
    for index in range(first, last):
        found = by_id.get(name_ids[index])
        if found is not None:
            found.append(index)
    out: Dict[str, List[int]] = {name: [] for name in wanted}
    for name_id, found in by_id.items():
        out[recorder.names[name_id]] = found
    return out


# ----------------------------------------------------------------------
# Writing spans out when the run ends
# ----------------------------------------------------------------------
def span_rows(recorder: Recorder, first: int, last: int, limit: int
              ) -> Tuple[List[Dict[str, Any]], int]:
    """Up to ``limit`` spans of a window as dicts, and how many were cut."""
    stop = min(last, first + limit)
    rows = [
        {
            "id": i,
            "name": recorder.names[recorder.name_ids[i]],
            "layer": recorder.layers[recorder.name_ids[i]],
            "start_ns": recorder.starts[i],
            "end_ns": recorder.ends[i],
            "parent": recorder.parents[i],
            "unit": recorder.units[i],
        }
        for i in range(first, stop)
    ]
    return rows, last - stop


def write_chrome_trace(path: str, rows: List[Dict[str, Any]], dropped: int) -> None:
    """Chrome trace-event file (load in chrome://tracing or Perfetto)."""
    origin = rows[0]["start_ns"] if rows else 0
    events = [
        {
            "name": row["name"],
            "cat": row["layer"],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (row["start_ns"] - origin) / 1000.0,
            "dur": (row["end_ns"] - row["start_ns"]) / 1000.0,
            "args": {"unit": row["unit"], "parent": row["parent"]},
        }
        for row in rows
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "droppedSpans": dropped}, handle)
