"""The discrete-event simulation core.

A :class:`Simulator` owns its virtual clock and its event queue. Events
scheduled for the same instant fire in scheduling order, which (together with
seeded RNGs everywhere else) makes whole-system runs reproducible.

The queue holds ``[when, tie, seq, fn, args]`` entries, one allocation
per event besides its args. ``seq`` is a monotonic sequence number: it
makes the order total, so two entries never compare on ``fn``, and
equal-time events fire in the order they were scheduled. ``tie`` sits in
front of it, ``0`` unless a tie-breaker is installed
(:meth:`Simulator.set_tie_breaker`), in which case it is drawn at
scheduling time. The simulation-testing explorer (:mod:`repro.simtest`)
installs a seeded-RNG tie-breaker to perturb the order of same-time
events: the draw is a pure function of the seed and the scheduling
sequence, so any perturbed schedule replays exactly.

The queue is a binary heap plus a *run*, a ``deque`` in key order:
:meth:`Simulator.schedule_at` appends to the run when no tie-breaker is
installed and its time is not before the run's last; all else goes to the
heap. The loop fires the smaller head, as one heap of both would.

The handle :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
return *is* the queue entry: an :class:`EventHandle` is a slotted ``list``
subclass ``[when, tie, seq, fn, args, sim]``, with ``time`` read from
index 0. An entry is tombstoned by clearing ``fn`` and ``args`` to
``None``, when it fires or is cancelled, so a handle held after either
pins neither the callback nor its arguments.

Cancellation is lazy: :meth:`EventHandle.cancel` tombstones the entry in
place, and the loop skips tombstones. Workloads that cancel most of what
they schedule (the reliable transport's retransmit timers, cancelled on
every ack) would otherwise grow the queue without bound, so a cancel that
leaves dead entries outnumbering live ones sweeps them out of both *in
place*, because a running loop holds a reference to each.

The event loop is a measured hot path (``benchmarks/bench_micro.py``):
:meth:`Simulator.run` and :meth:`Simulator.run_until` share one loop that
pops, tombstones and dispatches in place. The queue invariant — every
queued entry's time is >= the current time, enforced at scheduling — is
what makes the unguarded clock assignment in that loop safe.

Swarm-scale additions:

* :meth:`Simulator.call_later` is the fire-and-forget fast path — a
  plain five-slot entry and no :class:`EventHandle`, for callers that
  never cancel. The wireless medium's deliveries are the heavy user: a
  contention-free broadcast hands its list of surviving receivers to one
  ``call_later`` entry, so it pays one heap push/pop, not one per
  receiver.
* :meth:`Simulator.schedule_series` streams a precomputed schedule (a
  workload's open-loop arrivals): it reserves one sequence number per
  entry up front but keeps only the next entry in the heap, so the queue
  and its memory stay the size of the live protocol traffic, while every
  entry sorts exactly where an eager ``schedule_at`` loop would put it.
"""

from __future__ import annotations

from collections import deque
from functools import partialmethod
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.errors import SimulationError

#: Dead entries may outnumber live ones by this much before a cancel sweeps
#: them out of the queue.
_AUTO_COMPACT_MIN_DEAD = 64

#: ``run_until``'s event cap: an int too large to be reached, so the shared
#: loop's cap test never fires there.
_UNCAPPED = 1 << 62

_INFINITY = float("inf")


class EventHandle(list):
    """A scheduled event's queue entry, ``[when, tie, seq, fn, args, sim]``;
    :meth:`cancel` prevents it from firing."""

    __slots__ = ()

    @property
    def time(self) -> float:
        """The virtual time the event was scheduled for."""
        return self[0]

    def cancel(self) -> bool:
        """Cancel the event; returns False if it already fired or was cancelled.

        O(live) sweep when dead entries come to dominate, amortized O(1) per
        cancel (each sweep removes at least half the queue).
        """
        if self[3] is None:
            return False
        self[3] = self[4] = None
        sim = self[5]
        sim._live -= 1
        heap, run = sim._heap, sim._run
        dead = len(heap) + len(run) - sim._live
        if dead > _AUTO_COMPACT_MIN_DEAD and dead > sim._live:
            heap[:] = [queued for queued in heap if queued[3] is not None]
            heapify(heap)
            kept = [queued for queued in run if queued[3] is not None]
            run.clear()
            run.extend(kept)
        return True


class Simulator:
    """Event loop over virtual time.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, callback, arg)
        sim.run_until(10.0)

    Callbacks run synchronously; a callback may schedule further events. A
    callback that raises aborts the run (errors never pass silently in the
    substrate — failure *modeling* belongs in :mod:`repro.netsim.failures`).
    Time never moves backwards.
    """

    def __init__(self, start_time: float = 0.0):
        # Inverted comparison: rejects negatives and NaN alike.
        if not start_time >= 0.0:
            raise SimulationError(f"cannot start simulation at {start_time!r}")
        self._now = float(start_time)
        self._heap: List[List[Any]] = []
        self._run: Deque[EventHandle] = deque()
        self._next_seq = 0
        self._tie_breaker: Optional[Callable[[], Any]] = None
        self._live = 0
        self.events_processed = 0
        self._profiler: Optional[Any] = None

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or remove, with ``None``) an event-loop profiler.

        The profiler's ``add(fn, elapsed_seconds)`` is called after every
        processed event. Detached (the default), the loop pays a single
        ``is None`` check per event.
        """
        self._profiler = profiler

    def set_tie_breaker(self, tie_breaker: Optional[Callable[[], Any]]) -> None:
        """Install (or clear) a secondary ordering key for same-time events.

        By default events scheduled for the same instant fire in scheduling
        order (the monotonic sequence number). A tie-breaker is called once
        per scheduled event and its value orders same-time events ahead of
        that sequence number. Keys must be mutually comparable and
        comparable with ``0`` (the key of events scheduled while none was
        installed) — seeded ``random()`` floats satisfy both. Installing one
        mid-run is safe: queued events keep their keys.
        """
        self._tie_breaker = tie_breaker

    def tie_breaker_installed(self) -> bool:
        """True while a same-time tie-breaker is active.

        The medium stops batching same-tick broadcast deliveries into one
        event while one is installed, so schedule exploration keeps its
        power to interleave individual deliveries.
        """
        return self._tie_breaker is not None

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling

    def _handle(self, when: float, fn: Callable[..., None],
                args: tuple) -> EventHandle:
        seq = self._next_seq
        self._next_seq = seq + 1
        tie = self._tie_breaker
        handle = EventHandle((when, 0 if tie is None else tie(), seq, fn,
                              args, self))
        heappush(self._heap, handle)
        self._live += 1
        return handle

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        # A single inverted comparison rejects negatives and NaN alike
        # (NaN compares False against everything).
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        return self._handle(self._now + delay, fn, args)

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        # Inverted comparison so NaN (which compares False either way, and
        # would corrupt queue ordering) is rejected along with the past.
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule event at {when!r} "
                f"(past or NaN; now is {self._now!r})"
            )
        # ``+ 0.0`` normalizes ints so now() stays a float.
        when += 0.0
        run = self._run
        if self._tie_breaker is not None or run and when < run[-1][0]:
            return self._handle(when, fn, args)
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle((when, 0, seq, fn, args, self))
        run.append(handle)
        self._live += 1
        return handle

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds; no cancellation handle.

        The fire-and-forget twin of :meth:`schedule`, for hot paths that
        never cancel what they schedule (per-reception medium deliveries).
        The entry is a plain list one slot shorter than an
        :class:`EventHandle` and otherwise identical to one scheduled via
        :meth:`schedule` (same queue, same ordering, same profiler
        accounting); the body of :meth:`_handle` is inlined, to save its
        frame.
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        tie = self._tie_breaker
        heappush(self._heap, [self._now + delay,
                              0 if tie is None else tie(), seq, fn, args])
        self._live += 1

    def schedule_series(
        self, times: Sequence[float], fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(k, *args)`` at ``times[k]`` for every ``k``, in order.

        ``times`` is checked once, here: finite, non-decreasing and not
        before :meth:`now` (NaN is rejected, as :meth:`schedule_at` rejects
        it). The call reserves ``len(times)`` consecutive sequence numbers,
        but only one entry of the series is in the heap at a time: entry
        ``k`` carries sequence number ``first + k`` and pushes entry
        ``k + 1`` before it calls ``fn``. So every entry sorts against
        every other event, same-time ties included, exactly as it would
        had the caller looped ``schedule_at(times[k], fn, k, *args)`` here,
        and the live-event count holds a live series once. Under a
        tie-breaker an entry draws its tie value when it is pushed, not at
        this call. ``times`` must not change while the series runs, and a
        series cannot be cancelled.
        """
        previous = self._now
        for when in times:
            # Inverted, chained comparison: NaN, the past, a step back and
            # infinity all fail it.
            if not previous <= when < _INFINITY:
                raise SimulationError(
                    f"cannot schedule series entry at {when!r} "
                    f"(after {previous!r}: past, decreasing, NaN or infinite)"
                )
            previous = when
        count = len(times)
        if not count:
            return
        first = self._next_seq
        self._next_seq = first + count
        heap = self._heap
        k = 0

        def fire() -> None:
            nonlocal k
            due = k
            k += 1
            if k < count:
                tie = self._tie_breaker
                heappush(heap, [times[k] + 0.0, 0 if tie is None else tie(),
                                first + k, fire, ()])
                self._live += 1
            fn(due, *args)

        tie = self._tie_breaker
        heappush(heap, [times[0] + 0.0, 0 if tie is None else tie(),
                        first, fire, ()])
        self._live += 1

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

    def _loop(self, deadline: float, max_events: int = 1_000_000) -> None:
        """Fire every live event with time <= ``deadline``, in time order;
        raise once more than ``max_events`` have fired.

        The cap catches accidental infinite event chains (e.g. an unjittered
        retransmit loop) in :meth:`run` rather than hanging the test suite.
        The count is kept in a local and added to :attr:`events_processed`
        on the way out, which pays for the cap test: per event, the loop
        does no more work than an uncapped one updating the attribute.
        """
        heap, run = self._heap, self._run
        profiler = self._profiler
        processed = 0
        try:
            while True:
                # Popping first and putting the one overshoot back where it
                # came from saves a peek per event.
                if run and not (heap and heap[0] < run[0]):
                    entry = run.popleft()
                    fn = entry[3]
                    if fn is None:
                        continue
                    when = entry[0]
                    if when > deadline:
                        run.appendleft(entry)
                        break
                elif heap:
                    entry = heappop(heap)
                    fn = entry[3]
                    if fn is None:
                        continue
                    when = entry[0]
                    if when > deadline:
                        heappush(heap, entry)
                        break
                else:
                    break
                args = entry[4]
                # The tombstone: a late cancel() of the handle is a no-op.
                entry[3] = entry[4] = None
                self._live -= 1
                self._now = when
                processed += 1
                if profiler is None:
                    fn(*args)
                else:
                    _t0 = perf_counter()
                    try:
                        fn(*args)
                    finally:
                        profiler.add(fn, perf_counter() - _t0)
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events without draining"
                    )
        finally:
            self.events_processed += processed

    def run_until(self, deadline: float) -> None:
        """Process events with time <= deadline, then set the clock to deadline.

        A deadline earlier than now processes nothing and leaves the clock
        where it is; a NaN deadline is rejected (it compares False against
        every event time, so the loop would drain the whole queue).
        """
        if not deadline >= self._now:
            if deadline < self._now:
                return
            raise SimulationError(f"cannot run until {deadline!r}")
        self._loop(deadline, _UNCAPPED)
        if deadline > self._now:
            self._now = float(deadline)

    def run_for(self, duration: float) -> None:
        """Process events for ``duration`` seconds of virtual time."""
        self.run_until(self._now + duration)

    #: ``run(max_events=1_000_000)``: run until the queue drains; raises if
    #: ``max_events`` is exceeded. The loop itself, bound to an infinite
    #: deadline, so a call costs no wrapper frame (the datagram call budget
    #: in ``tests/test_perf_hotpaths.py`` runs the loop once per round trip).
    run = partialmethod(_loop, _INFINITY)

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
