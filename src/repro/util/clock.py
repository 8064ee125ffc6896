"""Clock abstraction.

The middleware never reads wall-clock time directly. Every component takes a
:class:`Clock`, so the same code runs under the discrete-event simulator
(where time is virtual and tests never sleep); a deployment outside it
supplies any object with ``now()``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now() -> float`` method (seconds)."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...


class ManualClock:
    """A clock advanced explicitly by the caller.

    Used standalone in unit tests and as the base of the simulator clock.
    Time never moves backwards: :meth:`advance` rejects negative deltas and
    :meth:`set` rejects times earlier than the current one.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def set(self, when: float) -> float:
        """Jump time forward to ``when`` and return it."""
        if when < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now!r} to {when!r}"
            )
        self._now = float(when)
        return self._now
