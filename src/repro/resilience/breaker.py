"""Per-node circuit breakers (closed / open / half-open).

Each client tracks, per storage node, a consecutive-failure counter.
When it crosses the threshold the breaker **opens**: the node becomes a
*suspect* — quorum reads deprioritise it and quorum writes hint it early
(when the quorum is already met without it), so a failing replica stops
costing timeouts on every request.  After ``open_seconds`` the breaker
moves to **half-open**: the node is offered one probe's worth of real
traffic; a success closes the breaker, a failure re-opens it.  The
threshold and the window are :data:`FAILURE_THRESHOLD` and
:data:`OPEN_SECONDS`.

Breakers are per-client state (each app server observes its own
failures), mirrored into telemetry as ``resilience.breaker.*`` series so
the dashboard can show fleet-wide pressure.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive failures that open a node's breaker, and how long it stays
#: open before a probe may go through.
FAILURE_THRESHOLD = 3
OPEN_SECONDS = 1.0


class CircuitBreaker:
    """One node's breaker state machine at one client."""

    __slots__ = ("failures", "_opened_at")

    def __init__(self) -> None:
        self.failures = 0
        self._opened_at: float = -1.0

    def state(self, now: float) -> str:
        if self._opened_at < 0:
            return CLOSED
        if now - self._opened_at >= OPEN_SECONDS:
            return HALF_OPEN
        return OPEN

    def record_success(self, now: float) -> None:
        self.failures = 0
        self._opened_at = -1.0

    def record_failure(self, now: float) -> None:
        state = self.state(now)
        if state == HALF_OPEN:
            # The probe failed: re-open for a full window.
            self._opened_at = now
            return
        if state == OPEN:
            return
        self.failures += 1
        if self.failures >= FAILURE_THRESHOLD:
            self._opened_at = now


class BreakerBoard:
    """All of one client's per-node breakers."""

    def __init__(self) -> None:
        self.breakers: Dict[int, CircuitBreaker] = {}

    def breaker(self, node_id: int) -> CircuitBreaker:
        breaker = self.breakers.get(node_id)
        if breaker is None:
            breaker = CircuitBreaker()
            self.breakers[node_id] = breaker
        return breaker

    def record_success(self, node_id: int, now: float) -> None:
        breaker = self.breakers.get(node_id)
        if breaker is not None:
            breaker.record_success(now)

    def record_failure(self, node_id: int, now: float) -> None:
        self.breaker(node_id).record_failure(now)

    def suspects(self, now: float) -> Set[int]:
        """Nodes whose breaker is open (half-open nodes may take probes)."""
        return {
            node_id
            for node_id, breaker in self.breakers.items()
            if breaker.state(now) == OPEN
        }

    def states(self, now: float) -> Dict[int, str]:
        return {
            node_id: breaker.state(now)
            for node_id, breaker in sorted(self.breakers.items())
        }

    def all_open(self, now: float, node_ids: Sequence[int]) -> bool:
        """True when every listed node's breaker is strictly open.

        Half-open breakers return False — a probe is allowed through, so
        the client is not fully fenced off and should attempt the call.
        """
        ids: List[int] = list(node_ids)
        if not ids:
            return False
        for node_id in ids:
            breaker = self.breakers.get(node_id)
            if breaker is None or breaker.state(now) != OPEN:
                return False
        return True
