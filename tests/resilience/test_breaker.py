"""Circuit-breaker state-machine tests."""

import pytest

from repro.resilience.breaker import (
    CLOSED,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    OPEN_SECONDS,
    BreakerBoard,
    CircuitBreaker,
)


def opened(breaker, now=0.0):
    """``breaker`` after enough consecutive failures at ``now`` to open."""
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(now)
    return breaker


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker()
        for index in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(index * 0.1)
        assert breaker.state(0.2) == CLOSED
        breaker.record_failure(0.2)
        assert breaker.state(0.3) == OPEN

    def test_half_open_after_window_then_success_closes(self):
        breaker = opened(CircuitBreaker())
        assert breaker.state(0.5 * OPEN_SECONDS) == OPEN
        assert breaker.state(OPEN_SECONDS) == HALF_OPEN  # the probe goes through
        breaker.record_success(1.1 * OPEN_SECONDS)
        assert breaker.state(1.1 * OPEN_SECONDS) == CLOSED
        assert breaker.failures == 0

    def test_half_open_probe_failure_reopens_full_window(self):
        breaker = opened(CircuitBreaker())
        probe = 1.5 * OPEN_SECONDS
        breaker.record_failure(probe)  # probe fails at half-open
        assert breaker.state(probe + 0.1 * OPEN_SECONDS) == OPEN
        assert breaker.state(probe + 0.9 * OPEN_SECONDS) == OPEN
        assert breaker.state(probe + OPEN_SECONDS) == HALF_OPEN

    def test_failures_while_open_do_not_extend_window(self):
        breaker = opened(CircuitBreaker())
        breaker.record_failure(0.5 * OPEN_SECONDS)  # already open: ignored
        assert breaker.state(OPEN_SECONDS) == HALF_OPEN

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state(0.3) == CLOSED


class TestBreakerBoard:
    def test_suspects_are_strictly_open_nodes(self):
        board = BreakerBoard()
        for _ in range(FAILURE_THRESHOLD):
            board.record_failure(0, 0.0)
            board.record_failure(1, 0.0)
        assert board.suspects(0.5 * OPEN_SECONDS) == {0, 1}
        # Both reach half-open; they may take probes again.
        assert board.suspects(OPEN_SECONDS) == set()
        assert len(board.suspects(0.5 * OPEN_SECONDS)) == 2

    def test_success_on_unknown_node_is_noop(self):
        board = BreakerBoard()
        board.record_success(7, 0.0)
        assert board.states(0.0) == {}

    def test_all_open_requires_every_node_strictly_open(self):
        board = BreakerBoard()
        assert not board.all_open(0.0, [])
        for _ in range(FAILURE_THRESHOLD):
            board.record_failure(0, 0.0)
        assert not board.all_open(0.1, [0, 1])  # node 1 has no breaker
        for _ in range(FAILURE_THRESHOLD):
            board.record_failure(1, 0.0)
        assert board.all_open(0.1, [0, 1])
        # Half-open means a probe is allowed: not fully fenced.
        assert not board.all_open(OPEN_SECONDS, [0, 1])
