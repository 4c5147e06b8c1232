"""Discrete-event simulation kernel for the serving tier.

The rest of the reproduction advances one :class:`~repro.kvstore.simtime.SimClock`
at a time: a client runs an interaction to completion, its private clock
advances, and the next client starts from zero.  That is fine for measuring
per-query cost but cannot model *contention*: fifty application servers
whose requests land on the same storage nodes at overlapping times.

This kernel provides the missing interleaving.  It keeps a single global
event queue ordered by simulated time (ties broken by scheduling order, so
runs are deterministic) and a global ``now``.  Client drivers schedule their
next step at the simulated time their private clock has reached, so the
kernel processes all clients' steps in global time order and per-node
request queues observe a realistic merged arrival process.

Events are plain callbacks ``action(sim)``; an action may schedule further
events, which is how drivers perpetuate themselves.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

Action = Callable[["Simulation"], None]


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled callback.

    Ordering is ``(time, seq)``: earlier simulated time first, and among
    events at the same instant, first-scheduled runs first (FIFO).  The
    action never participates in comparisons.
    """

    time: float
    seq: int
    action: Action = field(compare=False)
    name: str = field(default="", compare=False)


class EventQueue:
    """A priority queue of :class:`Event` objects (a binary heap)."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()

    def push(self, time: float, action: Action, name: str = "") -> Event:
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time: {time}")
        event = Event(time=time, seq=next(self._seq), action=action, name=name)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """Simulated time of the next event, or ``None`` when empty."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class Simulation:
    """The event loop: pops events in time order and runs their actions."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self.events_processed = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, action: Action, name: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Scheduling in the past is rejected: simulated time only moves
        forward, and an event behind ``now`` would silently reorder history.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, simulation is already at "
                f"{self.now:.6f}"
            )
        return self.queue.push(time, action, name)

    def every(
        self, interval: float, until: float, action: Action, name: str = ""
    ) -> None:
        """Run ``action`` every ``interval`` seconds from ``now + interval``.

        Each tick acts first and then schedules the next one, as long as it
        lands no later than ``until``.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")

        def tick(sim: "Simulation") -> None:
            action(sim)
            next_tick = sim.now + interval
            if next_tick <= until:
                sim.schedule_at(next_tick, tick, name)

        self.schedule_at(self.now + interval, tick, name)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event's action."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events in order; return how many were processed.

        Stops when the queue is empty, when the next event lies beyond
        ``until`` (the clock is then advanced to ``until`` exactly), after
        ``max_events`` events, or when an action calls :meth:`stop`.
        """
        self._stopped = False
        processed = 0
        while self.queue and not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            next_time = self.queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self.now = max(self.now, until)
                break
            event = self.queue.pop()
            self.now = event.time
            event.action(self)
            processed += 1
            self.events_processed += 1
        else:
            if until is not None and not self.queue and not self._stopped:
                self.now = max(self.now, until)
        return processed
