"""Circuit-breaker state-machine tests."""

import pytest

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)


class TestCircuitBreaker:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(open_seconds=0.0)

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, open_seconds=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state(0.2) == CLOSED
        breaker.record_failure(0.2)
        assert breaker.state(0.3) == OPEN

    def test_half_open_after_window_then_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, open_seconds=1.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.5) == OPEN
        assert breaker.state(1.0) == HALF_OPEN  # the probe goes through
        breaker.record_success(1.1)
        assert breaker.state(1.1) == CLOSED
        assert breaker.failures == 0

    def test_half_open_probe_failure_reopens_full_window(self):
        breaker = CircuitBreaker(failure_threshold=1, open_seconds=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.5)  # probe fails at half-open
        assert breaker.state(1.6) == OPEN
        assert breaker.state(2.4) == OPEN
        assert breaker.state(2.5) == HALF_OPEN

    def test_failures_while_open_do_not_extend_window(self):
        breaker = CircuitBreaker(failure_threshold=1, open_seconds=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.5)  # already open: ignored
        assert breaker.state(1.0) == HALF_OPEN

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, open_seconds=1.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state(0.3) == CLOSED


class TestBreakerBoard:
    def test_suspects_are_strictly_open_nodes(self):
        board = BreakerBoard(failure_threshold=1, open_seconds=1.0)
        board.record_failure(0, 0.0)
        board.record_failure(1, 0.0)
        assert board.suspects(0.5) == {0, 1}
        # Node 0 reaches half-open; it may take probes again.
        assert board.suspects(1.0) == set()
        assert len(board.suspects(0.5)) == 2

    def test_success_on_unknown_node_is_noop(self):
        board = BreakerBoard()
        board.record_success(7, 0.0)
        assert board.states(0.0) == {}

    def test_all_open_requires_every_node_strictly_open(self):
        board = BreakerBoard(failure_threshold=1, open_seconds=1.0)
        assert not board.all_open(0.0, [])
        board.record_failure(0, 0.0)
        assert not board.all_open(0.1, [0, 1])  # node 1 has no breaker
        board.record_failure(1, 0.0)
        assert board.all_open(0.1, [0, 1])
        # Half-open means a probe is allowed: not fully fenced.
        assert not board.all_open(1.0, [0, 1])
