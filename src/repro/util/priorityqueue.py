"""A stable priority queue with lazy deletion and a pluggable tie-breaker.

The simulator's event loop and the transaction scheduler both need a queue
that (a) breaks priority ties deterministically — by default in insertion
order — and (b) supports cancelling entries without an O(n) remove.

Tie-breaking is explicit and two-level. Every entry carries::

    [priority, tie, seq, item]

``seq`` is a **monotonic insertion sequence number** (0, 1, 2, ...): it
uniquely identifies the push and makes the heap order total, so two entries
never compare on ``item``. ``tie`` is a secondary key in front of it,
``0`` unless a *tie-breaker* is installed (:meth:`set_tie_breaker`), in
which case it is drawn from the tie-breaker at push time. The simulation-
testing explorer (:mod:`repro.simtest`) uses a seeded-RNG tie-breaker to
perturb the order of same-time events: because the draw is a pure function
of the RNG seed and the push sequence, any perturbed schedule can be
replayed exactly by re-running with the same seed — schedule exploration
and deterministic replay both hang off this hook.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")

_REMOVED = object()

#: Index of the payload slot in a heap entry (``[priority, tie, seq, item]``).
#: The simulator's inlined pop path and the tombstoning both use it.
_ITEM = 3


#: Dead entries may outnumber live ones by this much before :meth:`cancel`
#: triggers an automatic :meth:`StablePriorityQueue.compact` sweep.
_AUTO_COMPACT_MIN_DEAD = 64


class StablePriorityQueue(Generic[T]):
    """Min-heap keyed by ``(priority, tie, insertion sequence)``.

    With no tie-breaker installed (the default), ``tie`` is 0 for every
    entry, so entries with equal priority pop in the order they were pushed.
    ``push`` returns an opaque handle usable with :meth:`cancel`.

    Cancellation is lazy — the entry is tombstoned in place and skipped at
    pop time. Workloads that cancel most of what they schedule (e.g. the
    reliable transport's retransmit timers, cancelled on every ack) would
    otherwise grow the heap without bound, so :meth:`cancel` sweeps the
    tombstones out whenever dead entries outnumber live ones; see
    :meth:`compact`.

    The heap list (``_heap``), tombstone sentinel (``_REMOVED``), and entry
    layout (``[priority, tie, seq, item]``, payload at index :data:`_ITEM`)
    are deliberately stable internals: the simulator's event loop inlines
    the pop path against them, and its ``call_later`` the body of
    :meth:`push` (see :mod:`repro.netsim.simulator`).
    ``compact`` therefore rebuilds the heap *in place*, never rebinding the
    list.
    """

    def __init__(self) -> None:
        self._heap: List[List[Any]] = []
        self._next_seq = 0
        self._live = 0
        self._tie_breaker: Optional[Callable[[], Any]] = None

    def set_tie_breaker(self, tie_breaker: Optional[Callable[[], Any]]) -> None:
        """Install (or clear, with ``None``) a secondary-key source.

        ``tie_breaker()`` is called once per push; its return value orders
        entries with equal priority *before* the insertion sequence does.
        Keys must be mutually comparable and comparable with ``0`` (the key
        of entries pushed while no tie-breaker was installed) — seeded
        ``random()`` floats satisfy both. Installing one mid-run is safe:
        existing entries keep their keys.
        """
        self._tie_breaker = tie_breaker

    def push(self, priority: Any, item: T) -> List[Any]:
        seq = self._next_seq
        self._next_seq = seq + 1
        tie_breaker = self._tie_breaker
        entry = [priority, 0 if tie_breaker is None else tie_breaker(), seq, item]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: List[Any]) -> bool:
        """Mark an entry removed; returns False if already popped/cancelled."""
        if entry[_ITEM] is _REMOVED:
            return False
        entry[_ITEM] = _REMOVED
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > _AUTO_COMPACT_MIN_DEAD and dead > self._live:
            self.compact()
        return True

    def compact(self) -> int:
        """Sweep tombstoned entries out of the heap; returns how many.

        O(live) rebuild, amortized O(1) per cancel under the automatic
        trigger (each sweep removes at least half the heap). Rebuilds the
        existing list in place so long-lived references to the heap stay
        valid across a sweep.
        """
        heap = self._heap
        dead = len(heap) - self._live
        if dead == 0:
            return 0
        heap[:] = [entry for entry in heap if entry[_ITEM] is not _REMOVED]
        heapq.heapify(heap)
        return dead

    def pop(self) -> Tuple[Any, T]:
        """Remove and return ``(priority, item)`` for the smallest entry."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            item = entry[_ITEM]
            if item is not _REMOVED:
                # Mark popped so a late cancel() of the same handle is a no-op.
                entry[_ITEM] = _REMOVED
                self._live -= 1
                return entry[0], item
        raise IndexError("pop from empty priority queue")

    def peek(self) -> Tuple[Any, T]:
        """Return ``(priority, item)`` for the smallest entry, not removing it."""
        while self._heap:
            entry = self._heap[0]
            if entry[_ITEM] is not _REMOVED:
                return entry[0], entry[_ITEM]
            heapq.heappop(self._heap)
        raise IndexError("peek into empty priority queue")

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[Tuple[Any, T]]:
        """Iterate live entries in heap order (not sorted)."""
        return (
            (entry[0], entry[_ITEM])
            for entry in self._heap
            if entry[_ITEM] is not _REMOVED
        )

    def pop_if_at_most(self, bound: Any) -> Optional[Tuple[Any, T]]:
        """Pop the smallest entry if its priority is <= ``bound``, else None."""
        try:
            priority, _item = self.peek()
        except IndexError:
            return None
        if priority > bound:
            return None
        return self.pop()
