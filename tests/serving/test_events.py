"""Tests for the discrete-event kernel (ordering is everything)."""

from __future__ import annotations

import pytest

from repro.serving import EventQueue, Simulation


class TestEventQueue:
    def test_pops_in_time_order_regardless_of_push_order(self):
        queue = EventQueue()
        for time in (5.0, 1.0, 3.0, 2.0, 4.0):
            queue.push(time, lambda sim: None)
        assert [queue.pop().time for _ in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_equal_times_pop_fifo(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda sim: None, name="first")
        second = queue.push(1.0, lambda sim: None, name="second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-0.1, lambda sim: None)


class TestSimulation:
    def test_actions_run_in_time_order(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(2.0, lambda s: seen.append("late"))
        sim.schedule_at(1.0, lambda s: seen.append("early"))
        processed = sim.run()
        assert processed == 2
        assert seen == ["early", "late"]
        assert sim.now == 2.0

    def test_actions_can_schedule_more_events(self):
        sim = Simulation()
        seen = []

        def chain(s: Simulation) -> None:
            seen.append(s.now)
            if s.now < 3.0:
                s.schedule_at(s.now + 1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_run_until_leaves_future_events_queued(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(1.0, lambda s: seen.append(1.0))
        sim.schedule_at(10.0, lambda s: seen.append(10.0))
        sim.run(until=5.0)
        assert seen == [1.0]
        assert sim.now == 5.0
        assert len(sim.queue) == 1

    def test_run_until_past_all_events_advances_clock_to_until(self):
        sim = Simulation()
        sim.schedule_at(1.0, lambda s: None)
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulation()
        sim.schedule_at(2.0, lambda s: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda s: None)

    def test_stop_halts_the_loop(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(1.0, lambda s: (seen.append(1), s.stop()))
        sim.schedule_at(2.0, lambda s: seen.append(2))
        sim.run()
        assert seen == [1]
        assert len(sim.queue) == 1

    def test_max_events_bounds_processing(self):
        sim = Simulation()
        for t in range(5):
            sim.schedule_at(float(t), lambda s: None)
        assert sim.run(max_events=3) == 3
        assert len(sim.queue) == 2

    def test_interleaves_many_client_timelines(self):
        """Two 'clients' with different step sizes interleave correctly."""
        sim = Simulation()
        order = []

        def make_client(name: str, step: float, stop_at: float):
            def tick(s: Simulation) -> None:
                order.append((name, round(s.now, 6)))
                if s.now + step <= stop_at:
                    s.schedule_at(s.now + step, tick)

            return tick

        sim.schedule_at(0.0, make_client("a", 0.3, 1.0))
        sim.schedule_at(0.0, make_client("b", 0.5, 1.0))
        sim.run()
        assert order == [
            ("a", 0.0), ("b", 0.0),
            ("a", 0.3), ("b", 0.5), ("a", 0.6), ("a", 0.9), ("b", 1.0),
        ]

    def test_every_acts_then_reschedules_until_the_horizon(self):
        sim = Simulation()
        seen = []

        def act(s: Simulation) -> None:
            seen.append(s.now)
            if s.now == 1.0:
                # Scheduled by the action, so it runs before the next tick
                # at the same instant.
                s.schedule_at(1.5, lambda inner: seen.append("inner"))

        sim.every(0.5, 2.0, act, "tick")
        sim.run(until=10.0)
        assert seen == [0.5, 1.0, "inner", 1.5, 2.0]
        with pytest.raises(ValueError):
            sim.every(0.0, 1.0, act)
