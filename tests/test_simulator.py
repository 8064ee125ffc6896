"""Tests for repro.netsim.simulator."""

import pytest

from repro.errors import SimulationError
from repro.netsim.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [3.5]

    def test_now_follows_the_clock(self):
        sim = Simulator(start_time=1.5)
        assert sim.now() == 1.5
        sim.run_until(4.0)
        assert sim.now() == 4.0
        sim.run_for(0.25)
        assert sim.now() == 4.25
        sim.run_until(6.0)
        assert sim.now() == 6.0

    def test_schedule_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "value")
        sim.run()
        assert seen == ["value"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append("no"))
        assert handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert seen == [1, 2, 3]


class TestRunning:
    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run_until(2.0)
        assert seen == [1]
        assert sim.now() == 2.0
        assert sim.pending_events() == 1

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.run_until(3.0)
        sim.run_for(2.0)
        assert sim.now() == 5.0

    def test_running_an_empty_simulator_only_moves_the_clock(self):
        sim = Simulator()
        sim.run()
        assert sim.now() == 0.0
        sim.run_until(1.0)
        assert sim.now() == 1.0
        assert sim.events_processed == 0

    def test_run_until_the_first_event_time_processes_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.run_until(1.0)
        assert seen == ["a"]
        assert sim.events_processed == 1
        assert sim.pending_events() == 1

    def test_run_guards_against_runaway(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestPeriodic:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now()))
        sim.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_delay_override(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(2.0, lambda: ticks.append(sim.now()), first_delay=0.5)
        sim.run_until(3.0)
        assert ticks == [0.5, 2.5]

    def test_cancel_stops_firing(self):
        sim = Simulator()
        ticks = []
        periodic = sim.schedule_every(1.0, lambda: ticks.append(1))
        sim.run_until(2.5)
        periodic.cancel()
        sim.run_until(10.0)
        assert len(ticks) == 2

    def test_jitter_applied(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now()), jitter_fn=lambda: 0.25)
        sim.run_until(3.0)
        assert ticks == [1.25, 2.5]

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_every(0.0, lambda: None)

    def test_firings_counted(self):
        sim = Simulator()
        periodic = sim.schedule_every(1.0, lambda: None)
        sim.run_until(5.5)
        assert periodic.firings == 5


class TestHotPathScheduling:
    """call_later / schedule_batch — the allocation-lean swarm hot paths."""

    def test_call_later_fires_with_args(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.5, seen.append, "value")
        sim.run()
        assert seen == ["value"]
        assert sim.now() == 1.5

    def test_call_later_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-0.1, lambda: None)

    def test_call_later_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(float("nan"), lambda: None)

    def test_schedule_batch_fires_in_list_order_as_one_event(self):
        sim = Simulator()
        order = []
        sim.schedule_batch(1.0, [lambda i=i: order.append(i)
                                 for i in range(10)])
        sim.run()
        assert order == list(range(10))
        # The whole batch is one queue entry, so one processed event.
        assert sim.events_processed == 1

    def test_batch_orders_against_neighbors_by_push_order(self):
        # Same-timestamp entries fire in push order whether they are
        # singletons or batches: the batch is one entry at its push seq.
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("before"))
        sim.schedule_batch(1.0, [lambda: order.append("batch-a"),
                                 lambda: order.append("batch-b")])
        sim.schedule(1.0, lambda: order.append("after"))
        sim.run()
        assert order == ["before", "batch-a", "batch-b", "after"]

    def test_schedule_batch_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch(-1.0, [lambda: None])

    def test_tie_breaker_installed_flag(self):
        sim = Simulator()
        assert not sim.tie_breaker_installed()
        sim.set_tie_breaker(lambda: 0)
        assert sim.tie_breaker_installed()
        sim.set_tie_breaker(None)
        assert not sim.tie_breaker_installed()
