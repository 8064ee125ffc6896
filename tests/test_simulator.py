"""Tests for repro.netsim.simulator."""

import gc
import math
import weakref
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.netsim.simulator import _AUTO_COMPACT_MIN_DEAD, Simulator


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

    def test_cancel_twice_returns_false_the_second_time(self):
        sim = Simulator()
        handle = sim.schedule_at(2.5, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert sim._live == 0

    def test_handle_time_is_the_scheduled_time(self):
        sim = Simulator()
        sim.run_until(1.0)
        assert sim.schedule(0.5, lambda: None).time == 1.5
        at = sim.schedule_at(3, lambda: None)
        assert at.time == 3.0 and type(at.time) is float
        sim.run()
        assert at.time == 3.0  # still readable once fired

    @pytest.mark.parametrize("ending", ["cancel", "fire"])
    def test_a_held_handle_pins_no_args(self, ending):
        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        gone = weakref.ref(payload)
        handle = sim.schedule(1.0, lambda arg: None, payload)
        del payload
        if ending == "cancel":
            handle.cancel()
        else:
            sim.run()
        gc.collect()
        assert gone() is None
        assert handle.time == 1.0

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
        assert sim._live == 1

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
        assert sim._live == 1

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

    def test_cancel_stops_firing(self):
        sim = Simulator()
        ticks = []
        periodic = sim.schedule_every(1.0, lambda: ticks.append(1))
        sim.run_until(2.5)
        periodic.cancel()
        sim.run_until(10.0)
        assert len(ticks) == 2

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_every(0.0, lambda: None)

    def test_first_firing_is_one_interval_after_scheduling(self):
        sim = Simulator()
        sim.run_until(0.5)
        ticks = []
        sim.schedule_every(2.0, lambda: ticks.append(sim.now()))
        sim.run_until(5.0)
        assert ticks == [2.5, 4.5]

    def test_long_runs_fire_on_exact_multiples(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(0.25, lambda: ticks.append(sim.now()))
        sim.run_until(1000.0)
        assert ticks == [0.25 * k for k in range(1, 4001)]

    def test_firings_counted(self):
        sim = Simulator()
        periodic = sim.schedule_every(1.0, lambda: None)
        sim.run_until(5.5)
        assert periodic.firings == 5


class TestHotPathScheduling:
    """call_later — the allocation-lean swarm hot path."""

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

    def test_tie_breaker_installed_flag(self):
        sim = Simulator()
        assert not sim.tie_breaker_installed()
        sim.set_tie_breaker(lambda: 0)
        assert sim.tie_breaker_installed()
        sim.set_tie_breaker(None)
        assert not sim.tie_breaker_installed()


def _replay(streamed, series, inner, drive=None):
    """Run one script with each series scheduled eagerly or streamed.

    ``series`` is a list of time lists, scheduled in turn with events at
    every series time queued before and after them. ``inner[(s, k)]`` lists
    ``(s2, j)`` pairs: entry ``k`` of series ``s`` schedules an event at
    entry ``j`` of series ``s2``'s time when it fires, the case a "push
    the next entry when this one fires" series gets wrong. ``drive`` runs
    the simulator (default ``run()``). Returns (firing order, events).
    """
    sim = Simulator()
    fired = []

    def note(tag):
        fired.append((sim.now(), tag))

    def arrive(k, s):
        note(("series", s, k))
        for s2, j in inner.get((s, k), ()):
            sim.schedule_at(series[s2][j], note, ("inner", s, k, s2, j))
        sim.schedule(0.0, note, ("zero", s, k))

    instants = sorted({t for times in series for t in times})
    for t in instants:
        sim.schedule_at(t, note, ("before", t))
    for s, times in enumerate(series):
        if streamed:
            sim.schedule_series(times, arrive, s)
        else:
            for k, t in enumerate(times):
                sim.schedule_at(t, arrive, k, s)
    for t in instants:
        sim.schedule_at(t, note, ("after", t))
    (drive or Simulator.run)(sim)
    return fired, sim.events_processed


class TestScheduleSeries:
    """``schedule_series`` fires in exactly the eager ``schedule_at`` order."""

    SERIES = [[0.0, 1.0, 1.0, 2.0, 3.0, 3.0], [1.0, 2.0, 2.0, 3.0]]
    INNER = {(0, 0): [(0, 3), (1, 1)], (0, 1): [(0, 2), (0, 4)],
             (1, 0): [(0, 5), (1, 3)], (0, 3): [(0, 3), (1, 2)]}

    def test_same_order_as_the_eager_loop(self):
        eager = _replay(False, self.SERIES, self.INNER)
        streamed = _replay(True, self.SERIES, self.INNER)
        assert streamed == eager
        # The script really exercises ties and in-callback scheduling.
        assert ("inner", 0, 0, 0, 3) in [tag for _, tag in eager[0]]
        assert eager[1] == len(eager[0])

    def test_same_order_when_run_until_stops_between_entries(self):
        def drive(sim):
            for deadline in (0.5, 1.0, 2.0, 2.5):
                sim.run_until(deadline)
            sim.run()

        assert _replay(True, self.SERIES, self.INNER, drive) == \
            _replay(False, self.SERIES, self.INNER, drive)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_same_order_for_drawn_scripts(self, data):
        instants = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        series = data.draw(st.lists(
            st.lists(instants, max_size=6).map(sorted), min_size=1,
            max_size=3))
        entries = [(s, k) for s, times in enumerate(series)
                   for k in range(len(times))]
        inner = {}
        for s, k in entries:
            later = [(s2, j) for s2, j in entries
                     if series[s2][j] >= series[s][k]]
            inner[(s, k)] = data.draw(
                st.lists(st.sampled_from(later), max_size=2))
        assert _replay(True, series, inner) == _replay(False, series, inner)

    @pytest.mark.parametrize("times", [
        [float("nan")], [1.0, float("nan")], [2.0, 1.0], [1.0, float("inf")],
    ])
    def test_bad_times_raise_and_schedule_nothing(self, times):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_series(times, lambda k: None)
        assert sim._live == 0

    def test_past_times_raise(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_series([4.0, 6.0], lambda k: None)

    def test_empty_series_is_a_no_op(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule_series([], order.append)
        sim.schedule(1.0, order.append, "b")
        assert sim._live == 2
        sim.run()
        assert order == ["a", "b"]
        assert sim.events_processed == 2

    def test_a_live_series_is_one_pending_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_series([1.0, 2.0, 3.0, 4.0], fired.append)
        assert sim._live == 1
        sim.schedule(0.5, lambda: None)
        assert sim._live == 2
        sim.run_until(2.5)
        assert fired == [0, 1]
        assert sim._live == 1
        sim.run_until(4.0)
        assert sim._live == 0

    def test_run_drains_a_series_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule_series([1.0, 1.0, 3.0], lambda k, tag: seen.append(
            (sim.now(), k, tag)), "x")
        sim.run()
        assert seen == [(1.0, 0, "x"), (1.0, 1, "x"), (3.0, 2, "x")]
        assert sim._live == 0
        assert sim.events_processed == 3
        assert isinstance(sim.now(), float)

    def test_under_a_tie_breaker_each_entry_draws_when_pushed(self):
        sim = Simulator()
        draws = []
        sim.set_tie_breaker(lambda: draws.append(None) or 0.5)
        sim.schedule_series([1.0, 2.0, 3.0], lambda k: None)
        assert len(draws) == 1
        sim.run_until(1.0)
        assert len(draws) == 2
        sim.run()
        assert len(draws) == 3


_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


def _operation(reactions):
    """One drawn queue operation. An event it schedules runs ``reactions``
    (operations drawn the same way, with none of their own) when it fires.
    A ``burst`` is up to 80 ``schedule_at`` calls at one instant, so that
    cancelling them sweeps tombstones out of the queue."""
    return st.one_of(
        st.tuples(st.sampled_from(["at", "in", "later"]), _OFFSETS,
                  reactions),
        st.tuples(st.just("series"), st.lists(
            _OFFSETS, min_size=1, max_size=4).map(sorted), reactions),
        st.tuples(st.just("burst"), _OFFSETS, st.integers(1, 80)),
        st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
        st.tuples(st.just("cancel_all")),
        st.tuples(st.just("tie"), st.booleans()),
    )


#: A script: phases of top-level operations, each followed by a stop —
#: ``run_until(now + step)`` (on the instants events use, or between
#: them) or ``run(max_events=cap)``, whose cap can stop the loop between
#: two equal-time events.
_SCRIPTS = st.lists(st.tuples(
    st.lists(_operation(st.lists(_operation(st.just(())), max_size=2)),
             max_size=6),
    st.one_of(
        st.tuples(st.just("until"),
                  st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0])),
        st.tuples(st.just("cap"), st.integers(0, 12)))),
    min_size=1, max_size=6)


class _OneHeap:
    """The reference queue: a single ``heapq`` of ``(when, tie, seq)``
    keys, seq counted here, a series streamed one entry at a time, with
    the firings it predicts and the live entries it holds."""

    def __init__(self):
        self.heap = []
        self.live = {}  # seq -> (times, first, k) or None
        self.next_seq = 0
        self.fired = []

    def push(self, when, tie, series=None, seq=None):
        if seq is None:
            seq, self.next_seq = self.next_seq, self.next_seq + 1
        heappush(self.heap, (when, tie, seq))
        self.live[seq] = series
        return seq

    def pop(self, tie):
        """Fire the smallest live key; ``tie()`` is the key the simulator
        drew for a series' next entry."""
        while self.heap:
            when, _, seq = heappop(self.heap)
            if seq in self.live:
                series = self.live.pop(seq)
                self.fired.append((when, seq))
                if series is not None:
                    times, first, k = series
                    if k + 1 < len(times):
                        self.push(times[k + 1], tie(),
                                  series=(times, first, k + 1),
                                  seq=first + k + 1)
                return
        self.fired.append(None)

    def first_time(self):
        live = [when for when, _, seq in self.heap if seq in self.live]
        return min(live, default=math.inf)


class TestQueueExactness:
    """The heap and the sorted run of in-order ``schedule_at`` entries fire
    exactly as one heap of every entry would: the same ``(when, seq)``
    sequence and the same ``pending_events()``, through ties, tie-breakers,
    cancels and their sweeps, series and stops mid-instant."""

    @given(script=_SCRIPTS,
           ties=st.lists(st.sampled_from([0, 0.25, 0.5, 1.0]), min_size=1,
                         max_size=5))
    def test_fires_as_one_heap_would(self, script, ties):
        sim, ref = Simulator(), _OneHeap()
        fired, handles, drawn = [], [], []

        def draw():
            drawn.append(ties[len(drawn) % len(ties)])
            return drawn[-1]

        def tie():
            return drawn[-1] if sim.tie_breaker_installed() else 0

        def event(seq, reactions):
            def fire(*series_k):
                # A series pushes its next entry (drawing its tie) before
                # it calls back, so ``tie()`` is that entry's key here.
                ref.pop(tie)
                fired.append((sim.now(), seq + (series_k[0]
                                                if series_k else 0)))
                for operation in reactions:
                    apply(operation)
            return fire

        def apply(operation):
            kind, now = operation[0], sim.now()
            if kind in ("at", "in", "later"):
                offset, reactions = operation[1:3]
                fire = event(ref.next_seq, reactions)
                if kind == "later":
                    sim.call_later(offset, fire)
                    ref.push(now + offset, tie())
                else:
                    schedule = (sim.schedule_at(now + offset, fire)
                                if kind == "at" else
                                sim.schedule(offset, fire))
                    handles.append((schedule, ref.push(now + offset, tie())))
            elif kind == "series":
                times = [now + offset for offset in operation[1]]
                fire = event(ref.next_seq, operation[2])
                sim.schedule_series(times, fire)
                ref.push(times[0], tie(), series=(times, ref.next_seq, 0))
                ref.next_seq += len(times) - 1
            elif kind == "burst":
                for _ in range(operation[2]):
                    handle = sim.schedule_at(now + operation[1],
                                             event(ref.next_seq, ()))
                    handles.append((handle, ref.push(now + operation[1],
                                                     tie())))
            elif kind == "tie":
                sim.set_tie_breaker(draw if operation[1] else None)
            else:
                chosen = handles
                if kind == "cancel" and handles:
                    chosen = [handles[operation[1] % len(handles)]]
                for handle, seq in chosen:
                    expected = seq in ref.live
                    ref.live.pop(seq, None)
                    assert handle.cancel() is expected
                    if expected:
                        live = sim._live
                        dead = len(sim._heap) + len(sim._run) - live
                        assert dead <= _AUTO_COMPACT_MIN_DEAD or dead <= live

        for operations, (stop, value) in script:
            for operation in operations:
                apply(operation)
            if stop == "until":
                deadline = sim.now() + value
                sim.run_until(deadline)
                assert ref.first_time() > deadline
            else:
                before = sim.events_processed
                try:
                    sim.run(max_events=value)
                except SimulationError:
                    assert sim.events_processed - before == value + 1
                else:
                    assert not ref.live
            assert fired == ref.fired
            assert sim._live == len(ref.live)
        sim.run()
        assert fired == ref.fired
        assert sim._live == len(ref.live) == 0
