"""A named-metric registry: counters and bounded histograms.

Before this module, the simulator's measurement state was scattered across
ad-hoc dataclass fields (``ClientStats``, ``NodeStats``, ``TrafficLog``),
each with hand-written snapshot/delta/reset code that had to be kept in
sync with the field list.  The registry replaces that with one generic
mechanism: a metric is a *name*, snapshots copy every name, and deltas
difference the union of names — adding a counter somewhere never requires
touching accounting code anywhere else.

Conventions
-----------
Metric names are dotted paths grouped by owner: ``client.operations``,
``node.keys_filtered``, ``serving.shed``, ``replication.hints_replayed``.
Counters are monotonic within a measurement window (snapshot/delta make
windows) and only ever grow through :meth:`MetricsRegistry.add` /
:meth:`~MetricsRegistry.add_many`; the objects that expose them as
attributes do so through read-only views (:func:`counter_properties`).
Histograms are bounded reservoirs of observations intended for percentile
reporting.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import HistogramMergeError
from ..stats import nearest_rank_percentile

#: Default size of a histogram's reservoir: large enough for a stable 99th
#: percentile, small enough that long simulations stay O(1) in memory.
DEFAULT_HISTOGRAM_CAPACITY = 512


class BoundedHistogram:
    """A bounded reservoir of observations (Vitter's algorithm R).

    Keeps at most ``capacity`` samples with each of the ``count`` observed
    values equally likely to be retained, so percentiles stay representative
    no matter how long the run.  The random stream is deterministic, keeping
    simulations reproducible.
    """

    __slots__ = ("capacity", "samples", "count", "total", "_rng")

    def __init__(self, capacity: int = DEFAULT_HISTOGRAM_CAPACITY):
        if capacity < 1:
            raise ValueError("histogram capacity must be positive")
        self.capacity = capacity
        self.samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self._rng = random.Random(0x5EED)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self.samples) < self.capacity:
            self.samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self.samples[slot] = value

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile (e.g. ``0.99``) of the retained samples."""
        return nearest_rank_percentile(self.samples, fraction)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def copy(self) -> "BoundedHistogram":
        clone = BoundedHistogram.__new__(BoundedHistogram)
        clone.capacity = self.capacity
        clone.samples = list(self.samples)
        clone.count = self.count
        clone.total = self.total
        clone._rng = random.Random()
        clone._rng.setstate(self._rng.getstate())
        return clone

    def merge(self, other: "BoundedHistogram") -> None:
        """Fold another reservoir into this one (fleet roll-ups).

        The result is a representative sample of the *union* of both
        observation streams at this histogram's capacity: each retained
        slot is drawn from one operand with probability proportional to
        how many observations that operand's reservoir stands for, sampled
        without replacement within each side.  Differing capacities
        therefore rebin naturally — the merged reservoir simply re-weights
        — while an internally inconsistent operand (a reservoir claiming
        more retained samples than observations, which would silently skew
        every weight) raises :class:`~repro.errors.HistogramMergeError`.
        Deterministic: draws come from this histogram's own seeded stream.
        """
        if not isinstance(other, BoundedHistogram):
            raise HistogramMergeError(
                f"operand is {type(other).__name__}, not BoundedHistogram"
            )
        for operand, side in ((self, "self"), (other, "other")):
            if operand.capacity < 1:
                raise HistogramMergeError(f"{side} has capacity {operand.capacity}")
            if len(operand.samples) > operand.count:
                raise HistogramMergeError(
                    f"{side} retains {len(operand.samples)} samples but "
                    f"claims only {operand.count} observations"
                )
        if other.count == 0:
            return
        if self.count == 0:
            # Nothing to weight against: adopt a (sub)sample of the other
            # reservoir at this histogram's capacity.
            pool = list(other.samples)
            while len(pool) > self.capacity:
                pool.pop(self._rng.randrange(len(pool)))
            self.samples = pool
            self.count = other.count
            self.total = other.total
            return
        mine = list(self.samples)
        theirs = list(other.samples)
        weight_mine = float(self.count)
        weight_theirs = float(other.count)
        target = min(self.capacity, len(mine) + len(theirs))
        merged: List[float] = []
        rng = self._rng
        while len(merged) < target:
            if not mine:
                take_mine = False
            elif not theirs:
                take_mine = True
            else:
                take_mine = (
                    rng.random() * (weight_mine + weight_theirs) < weight_mine
                )
            pool = mine if take_mine else theirs
            merged.append(pool.pop(rng.randrange(len(pool))))
        self.samples = merged
        self.count += other.count
        self.total += other.total


class MetricsRegistry:
    """Named counters and histograms with snapshot/delta semantics."""

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, BoundedHistogram] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        """Increment a counter (created at zero on first touch)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def add_many(self, amounts: Iterable[Tuple[str, float]]) -> None:
        """Increment several counters in one call (one RPC's worth of bumps).

        Exactly :meth:`add` per pair, zero amounts included: a counter
        touched with 0 exists afterwards, because scrapes and reports
        enumerate names.
        """
        counters = self._counters
        for name, amount in amounts:
            counters[name] = counters.get(name, 0) + amount

    def value(self, name: str) -> float:
        """Current value of a counter (zero if never touched)."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, float]:
        """A copy of every counter, for reports and assertions."""
        return dict(self._counters)

    @property
    def live_counters(self) -> Dict[str, float]:
        """The live counter mapping itself — hot-path reads; do not mutate."""
        return self._counters

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        value: float,
        capacity: int = DEFAULT_HISTOGRAM_CAPACITY,
    ) -> None:
        """Offer one observation to a named bounded histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = BoundedHistogram(capacity)
            self._histograms[name] = histogram
        histogram.observe(value)

    def histogram(self, name: str) -> Optional[BoundedHistogram]:
        return self._histograms.get(name)

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def snapshot(self) -> "MetricsRegistry":
        """An independent copy of every metric (one end of a window)."""
        copy = MetricsRegistry()
        copy._counters = dict(self._counters)
        copy._histograms = {
            name: histogram.copy() for name, histogram in self._histograms.items()
        }
        return copy

    def delta(self, earlier: "MetricsRegistry") -> "MetricsRegistry":
        """Counter differences over the union of names.

        Histograms are samples, not sums, so the delta starts with none.
        """
        diff = MetricsRegistry()
        names = set(self._counters) | set(earlier._counters)
        diff._counters = {
            name: self._counters.get(name, 0) - earlier._counters.get(name, 0)
            for name in names
        }
        return diff

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (fleet roll-ups).

        Counters add; histograms merge as weighted
        reservoir samples — see :meth:`BoundedHistogram.merge`, which
        rebins operands of differing capacities and raises
        :class:`~repro.errors.HistogramMergeError` on inconsistent ones.
        """
        for name, value in other._counters.items():
            self.add(name, value)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = histogram.copy()
            else:
                mine.merge(histogram)

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._counters.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({dict(sorted(self._counters.items()))!r})"


def counter_properties(
    cls: type, prefix: str, fields: Sequence[Tuple[str, type]]
) -> None:
    """Give ``cls`` one read-only attribute per ``(field, cast)`` in ``fields``.

    ``instance.<field>`` reads ``cast(instance.metrics.value("<prefix>.<field>"))``;
    there is no setter, so a counter has exactly one way to grow — through
    the registry.
    """

    def view(metric: str, cast: type) -> property:
        return property(lambda self: cast(self.metrics.value(metric)))

    for name, cast in fields:
        setattr(cls, name, view(f"{prefix}.{name}", cast))
