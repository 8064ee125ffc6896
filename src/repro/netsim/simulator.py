"""The discrete-event simulation core.

A :class:`Simulator` owns a virtual clock and a stable event queue. Events
scheduled for the same instant fire in scheduling order, which (together with
seeded RNGs everywhere else) makes whole-system runs reproducible.

The event loop is a measured hot path (``benchmarks/bench_micro.py``), so it
trades a little abstraction for speed: queue entries carry ``(fn, args)``
tuples instead of a per-event thunk lambda, and :meth:`Simulator.run` /
:meth:`Simulator.run_until` inline the lazy-deletion pop and the clock
assignment against the queue's documented internals rather than going
through ``pop()``/``peek()`` per event. The heap invariant — every queued
entry's time is >= the current clock, enforced at scheduling — is what
makes the unguarded clock assignment in those loops safe.

Swarm-scale additions (see ARCHITECTURE §13):

* :meth:`Simulator.call_later` is the fire-and-forget fast path — no
  :class:`EventHandle` allocation, for callers that never cancel (the
  wireless medium's per-reception delivery events are the heavy user).
* :meth:`Simulator.schedule_batch` folds N same-tick zero-arg callbacks
  into **one** queue entry, so a 10k-receiver broadcast costs one heap
  push/pop instead of 10k. Batched callbacks fire back-to-back in list
  order, which is exactly the order N individually scheduled same-time
  events would have fired in (consecutive sequence numbers), so delivery
  traces are unchanged — but a same-time tie-breaker cannot interleave
  *between* them, which is why callers that need explorable interleavings
  (:mod:`repro.simtest`) check :meth:`Simulator.tie_breaker_installed`
  before batching.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.util.clock import ManualClock
from repro.util.priorityqueue import StablePriorityQueue, _ITEM, _REMOVED

#: A queue item: the callback and its (possibly empty) argument tuple.
Event = Tuple[Callable[..., None], Tuple[Any, ...]]


def _fire_batch(callbacks: List[Callable[[], None]]) -> None:
    """Dispatch one same-tick batch (see :meth:`Simulator.schedule_batch`)."""
    for fn in callbacks:
        fn()


class EventHandle:
    """Handle to a scheduled event; :meth:`cancel` prevents it from firing."""

    __slots__ = ("_queue", "_entry", "time")

    def __init__(self, queue: StablePriorityQueue, entry: List[Any], time: float):
        self._queue = queue
        self._entry = entry
        self.time = time

    def cancel(self) -> bool:
        """Cancel the event; returns False if it already fired or was cancelled."""
        return self._queue.cancel(self._entry)


class Simulator:
    """Event loop over virtual time.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, callback, arg)
        sim.run_until(10.0)

    Callbacks run synchronously; a callback may schedule further events. A
    callback that raises aborts the run (errors never pass silently in the
    substrate — failure *modeling* belongs in :mod:`repro.netsim.failures`).
    """

    def __init__(self, start_time: float = 0.0):
        self._clock = ManualClock(start_time)
        self._queue: StablePriorityQueue[Event] = StablePriorityQueue()
        self.events_processed = 0
        self._profiler: Optional[Any] = None

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or remove, with ``None``) an event-loop profiler.

        The profiler's ``add(fn, elapsed_seconds)`` is called after every
        processed event. Detached (the default), the loops pay a single
        ``is None`` check per event.
        """
        self._profiler = profiler

    def set_tie_breaker(self, tie_breaker: Optional[Callable[[], Any]]) -> None:
        """Install (or clear) a secondary ordering key for same-time events.

        By default events scheduled for the same instant fire in scheduling
        order (the queue's monotonic sequence number). A tie-breaker is
        called once per scheduled event and its value orders same-time
        events ahead of that sequence number — the schedule-exploration
        hook used by :mod:`repro.simtest` to perturb event interleavings
        with a seeded RNG while staying exactly replayable.
        """
        self._queue.set_tie_breaker(tie_breaker)

    def tie_breaker_installed(self) -> bool:
        """True while a same-time tie-breaker is active.

        Same-tick batching (:meth:`schedule_batch`, the medium's broadcast
        delivery batches) is disabled while one is installed, so schedule
        exploration keeps its power to interleave individual deliveries.
        """
        return self._queue._tie_breaker is not None

    # ------------------------------------------------------------------ time

    def now(self) -> float:
        """Current virtual time in seconds (the Clock protocol)."""
        # ``ManualClock.now`` read in place: one frame, not two, on a call
        # made all over the stack.
        return self._clock._now

    @property
    def clock(self) -> ManualClock:
        """The underlying clock, usable wherever a ``Clock`` is expected."""
        return self._clock

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        # A single inverted comparison rejects negatives and NaN alike
        # (NaN compares False against everything).
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        when = self._clock._now + delay
        entry = self._queue.push(when, (fn, args))
        return EventHandle(self._queue, entry, when)

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        # Inverted comparison so NaN (which compares False either way, and
        # would corrupt heap ordering) is rejected along with the past.
        if not when >= self._clock._now:
            raise SimulationError(
                f"cannot schedule event at {when!r} "
                f"(past or NaN; now is {self._clock._now!r})"
            )
        when = when + 0.0  # normalize ints so now() stays a float
        entry = self._queue.push(when, (fn, args))
        return EventHandle(self._queue, entry, when)

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds; no cancellation handle.

        The fire-and-forget twin of :meth:`schedule`, for hot paths that
        never cancel what they schedule (per-reception medium deliveries).
        Skipping the :class:`EventHandle` allocation saves real time at
        swarm scale — the event itself is identical to one scheduled via
        :meth:`schedule` (same queue, same ordering, same profiler
        accounting): the body of ``StablePriorityQueue.push`` inlined, as
        the run loops inline the pop.
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        tie = queue._tie_breaker
        heappush(queue._heap, [self._clock._now + delay,
                               0 if tie is None else tie(), seq, (fn, args)])
        queue._live += 1

    def schedule_batch(
        self, delay: float, callbacks: List[Callable[[], None]]
    ) -> None:
        """Run every zero-arg callback in ``callbacks`` after ``delay``, as
        one queue entry.

        The callbacks fire back-to-back in list order at the same virtual
        instant — exactly the order they would have fired in had each been
        scheduled individually (consecutive sequence numbers) — but the
        queue carries a single entry, so the per-event heap and dispatch
        overhead is paid once instead of ``len(callbacks)`` times. The
        batch counts as one processed event. Callers that must preserve
        same-time *interleavability* (schedule exploration) should fall
        back to individual scheduling while
        :meth:`tie_breaker_installed` is true.
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        self._queue.push(self._clock._now + delay, (_fire_batch, (callbacks,)))

    def schedule_every(
        self,
        interval: float,
        fn: Callable[..., None],
        *args: Any,
        jitter_fn: Optional[Callable[[], float]] = None,
        first_delay: Optional[float] = None,
    ) -> "PeriodicEvent":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        ``jitter_fn``, if given, is called before each firing and its result
        is added to that firing's delay (pass a seeded-RNG closure for
        deterministic jitter). ``first_delay`` overrides the delay before the
        first firing (default: one full interval).
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval!r}")
        periodic = PeriodicEvent(self, interval, fn, args, jitter_fn)
        periodic._arm(interval if first_delay is None else first_delay)
        return periodic

    # ---------------------------------------------------------------- running

    def step(self) -> bool:
        """Process the single next event; returns False if the queue is empty."""
        try:
            when, (fn, args) = self._queue.pop()
        except IndexError:
            return False
        self._clock._now = when
        self.events_processed += 1
        profiler = self._profiler
        if profiler is None:
            fn(*args)
        else:
            _t0 = perf_counter()
            try:
                fn(*args)
            finally:
                profiler.add(fn, perf_counter() - _t0)
        return True

    def run_until(self, deadline: float) -> None:
        """Process events with time <= deadline, then set the clock to deadline."""
        queue = self._queue
        heap = queue._heap
        clock = self._clock
        removed = _REMOVED
        profiler = self._profiler
        while heap:
            entry = heap[0]
            item = entry[_ITEM]
            if item is removed:
                heappop(heap)
                continue
            when = entry[0]
            if when > deadline:
                break
            heappop(heap)
            entry[_ITEM] = removed  # a late cancel() of the handle is a no-op
            queue._live -= 1
            clock._now = when
            self.events_processed += 1
            if profiler is None:
                item[0](*item[1])
            else:
                _t0 = perf_counter()
                try:
                    item[0](*item[1])
                finally:
                    profiler.add(item[0], perf_counter() - _t0)
        if deadline > clock._now:
            clock.set(deadline)

    def run_for(self, duration: float) -> None:
        """Process events for ``duration`` seconds of virtual time."""
        self.run_until(self.now() + duration)

    def run(self, max_events: int = 1_000_000) -> None:
        """Run until the queue drains; raises if ``max_events`` is exceeded.

        The cap catches accidental infinite event chains (e.g. an unjittered
        retransmit loop) rather than hanging the test suite.
        """
        queue = self._queue
        heap = queue._heap
        clock = self._clock
        removed = _REMOVED
        profiler = self._profiler
        processed = 0
        while heap:
            entry = heappop(heap)
            item = entry[_ITEM]
            if item is removed:
                continue
            entry[_ITEM] = removed
            queue._live -= 1
            clock._now = entry[0]
            self.events_processed += 1
            if profiler is None:
                item[0](*item[1])
            else:
                _t0 = perf_counter()
                try:
                    item[0](*item[1])
                finally:
                    profiler.add(item[0], perf_counter() - _t0)
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events without draining"
                )

    def pending_events(self) -> int:
        return len(self._queue)


class PeriodicEvent:
    """A self-rearming event created by :meth:`Simulator.schedule_every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., None],
        args: tuple,
        jitter_fn: Optional[Callable[[], float]],
    ):
        self._sim = sim
        self.interval = interval
        self._fn = fn
        self._args = args
        self._jitter_fn = jitter_fn
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self.firings = 0

    def _arm(self, delay: float) -> None:
        if self._cancelled:
            return
        if self._jitter_fn is not None:
            delay = max(0.0, delay + self._jitter_fn())
        self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.firings += 1
        try:
            self._fn(*self._args)
        finally:
            self._arm(self.interval)

    def cancel(self) -> None:
        """Stop future firings; idempotent."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
