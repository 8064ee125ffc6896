"""Tests for repro.util (ids, events, geometry, rng) and for the event
queue the simulator owns: its ordering, cancellation and tie-breaker."""

import pytest

from repro.netsim.simulator import Simulator
from repro.util.events import EventEmitter, HandlerErrors
from repro.util.geometry import Point, distance
from repro.util.ids import IdGenerator, SequenceGenerator
from repro.util.rng import make_rng, split_rng


class TestIds:
    def test_sequence_increments(self):
        seq = SequenceGenerator()
        assert [seq.next() for _ in range(3)] == [0, 1, 2]

    def test_sequence_custom_start(self):
        assert SequenceGenerator(10).next() == 10

    def test_id_generator_format(self):
        gen = IdGenerator("msg")
        assert gen.next() == "msg-0"
        assert gen.next() == "msg-1"

    def test_id_generator_rejects_empty_prefix(self):
        with pytest.raises(ValueError):
            IdGenerator("")

    def test_independent_generators(self):
        a, b = IdGenerator("a"), IdGenerator("b")
        a.next()
        assert b.next() == "b-0"


class TestEventEmitter:
    def test_emit_calls_handler(self):
        emitter = EventEmitter()
        seen = []
        emitter.on("tick", seen.append)
        emitter.emit("tick", 42)
        assert seen == [42]

    def test_emit_returns_delivery_count(self):
        emitter = EventEmitter()
        emitter.on("e", lambda: None)
        emitter.on("e", lambda: None)
        assert emitter.emit("e") == 2

    def test_emit_without_handlers(self):
        assert EventEmitter().emit("nothing") == 0

    def test_handlers_run_in_subscription_order(self):
        emitter = EventEmitter()
        order = []
        emitter.on("e", lambda: order.append("first"))
        emitter.on("e", lambda: order.append("second"))
        emitter.emit("e")
        assert order == ["first", "second"]

    def test_cancel_detaches(self):
        emitter = EventEmitter()
        seen = []
        sub = emitter.on("e", seen.append)
        sub.cancel()
        emitter.emit("e", 1)
        assert seen == []

    def test_cancel_twice_is_noop(self):
        emitter = EventEmitter()
        sub = emitter.on("e", lambda x: None)
        sub.cancel()
        sub.cancel()

    def test_once_fires_once(self):
        emitter = EventEmitter()
        seen = []
        emitter.once("e", seen.append)
        emitter.emit("e", 1)
        emitter.emit("e", 2)
        assert seen == [1]

    def test_failing_handler_does_not_block_others(self):
        emitter = EventEmitter()
        seen = []

        def bad():
            raise RuntimeError("boom")

        emitter.on("e", bad)
        emitter.on("e", lambda: seen.append("ran"))
        with pytest.raises(HandlerErrors) as excinfo:
            emitter.emit("e")
        assert seen == ["ran"]
        assert str(excinfo.value).startswith("1 handler(s) failed")

    def test_listener_count(self):
        emitter = EventEmitter()
        emitter.on("e", lambda: None)
        assert len(emitter._handlers["e"]) == 1
        assert "other" not in emitter._handlers


class TestStablePriorityQueue:
    """The simulator's event queue: the ordering and cancellation a stable
    priority queue gives, pinned on :class:`Simulator` itself."""

    def fire(self, sim):
        fired = []
        return fired, lambda label: fired.append((sim.now(), label))

    def test_pops_in_priority_order(self):
        sim = Simulator()
        fired, note = self.fire(sim)
        sim.schedule(3.0, note, "c")
        sim.schedule(1.0, note, "a")
        sim.schedule(2.0, note, "b")
        sim.run()
        assert fired == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_equal_priorities_pop_fifo(self):
        sim = Simulator()
        fired, note = self.fire(sim)
        sim.schedule(1.0, note, "first")
        sim.schedule_at(1.0, note, "second")
        sim.run()
        assert fired == [(1.0, "first"), (1.0, "second")]

    def test_empty_queue_fires_nothing(self):
        sim = Simulator()
        sim.run()
        sim.run_until(2.0)
        assert sim.events_processed == 0
        assert sim.now() == 2.0

    def test_pending_events_does_not_remove(self):
        sim = Simulator()
        fired, note = self.fire(sim)
        sim.schedule(1.0, note, "x")
        assert sim._live == 1
        assert sim._live == 1
        sim.run()
        assert fired == [(1.0, "x")]

    def test_cancel_removes_entry(self):
        sim = Simulator()
        fired, note = self.fire(sim)
        handle = sim.schedule(1.0, note, "a")
        sim.schedule(2.0, note, "b")
        assert handle.cancel()
        sim.run()
        assert fired == [(2.0, "b")]

    def test_cancel_twice_returns_false(self):
        handle = Simulator().schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_len_and_bool(self):
        sim = Simulator()
        assert sim._live == 0
        handle = sim.schedule(1.0, lambda: None)
        assert sim._live == 1
        handle.cancel()
        assert sim._live == 0

    def test_run_until_fires_only_events_at_most_the_deadline(self):
        sim = Simulator()
        fired, note = self.fire(sim)
        sim.schedule(5.0, note, "later")
        sim.run_until(4.0)
        assert fired == []
        sim.run_until(5.0)
        assert fired == [(5.0, "later")]
        sim.run_until(100.0)
        assert fired == [(5.0, "later")]


class TestGeometry:
    def test_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_distance_to_self_is_zero(self):
        p = Point(2, 3)
        assert p.distance_to(p) == 0.0

    def test_move_toward_partial(self):
        moved = Point(0, 0).move_toward(Point(10, 0), 4)
        assert moved == Point(4, 0)

    def test_move_toward_does_not_overshoot(self):
        assert Point(0, 0).move_toward(Point(1, 0), 5) == Point(1, 0)

    def test_move_toward_zero_distance(self):
        p = Point(1, 1)
        assert p.move_toward(p, 3) == p


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_split_is_deterministic(self):
        assert split_rng(1, "a").random() == split_rng(1, "a").random()

    def test_split_labels_are_independent(self):
        assert split_rng(1, "a").random() != split_rng(1, "b").random()


class TestTieBreaker:
    def run(self, times, tie_breaker=None):
        sim = Simulator()
        sim.set_tie_breaker(tie_breaker)
        fired = []
        for index, when in enumerate(times):
            sim.schedule_at(when, fired.append, index)
        sim.run()
        return fired

    def test_default_is_fifo_for_equal_priorities(self):
        assert self.run([1.0, 1.0, 1.0]) == [0, 1, 2]

    def test_tie_breaker_reorders_equal_priorities(self):
        draws = iter([0.9, 0.1, 0.5])
        assert self.run([1.0, 1.0, 1.0], lambda: next(draws)) == [1, 2, 0]

    def test_tie_breaker_never_overrides_priority(self):
        draws = iter([0.9, 0.0])
        assert self.run([1.0, 2.0], lambda: next(draws)) == [0, 1]

    def test_equal_draws_fall_back_to_fifo(self):
        assert self.run([1.0, 1.0, 1.0], lambda: 0.5) == [0, 1, 2]

    def test_clearing_restores_fifo(self):
        sim = Simulator()
        sim.set_tie_breaker(lambda: 0.0)
        sim.set_tie_breaker(None)
        fired = []
        for name in "ab":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b"]

    def test_seeded_reorder_is_replayable(self):
        import random

        def run(seed):
            times = [float(index % 3) for index in range(20)]
            return self.run(times, random.Random(seed).random)

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_simulator_tie_breaker_perturbs_same_time_events(self):
        import random

        def run(seed):
            sim = Simulator()
            if seed is not None:
                sim.set_tie_breaker(random.Random(seed).random)
            fired = []
            for name in "abcde":
                sim.schedule_at(1.0, fired.append, name)
            sim.run_until(2.0)
            return fired

        assert run(None) == list("abcde")      # default: scheduling order
        assert run(3) == run(3)                # perturbed but replayable
