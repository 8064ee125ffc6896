"""Operation histories: invoke/response intervals recorded off promises.

A :class:`History` is what a harness remembers about the operations it
issued so an oracle can judge them afterwards. The simtest worlds and the
workload archetypes record through this one class;
:func:`repro.simtest.oracles.replay` judges what it recorded. Recording
only attaches a settle callback to a promise the harness already holds, so
it never changes what goes on the wire.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

#: ``(obj, client, op, args, invoke, response, result)``.
Row = Tuple[Tuple[Any, ...], str, str, Tuple[Any, ...], float, Any, Any]


class History:
    """Operation intervals on the clock ``now``, in invocation order."""

    def __init__(self, now: Callable[[], float]):
        self._now = now
        self._rows: List[List[Any]] = []

    def record(self, obj: Tuple[Any, ...], client: str, op: str,
               args: Tuple[Any, ...], promise: Any) -> None:
        """Open an interval now; close it when ``promise`` is fulfilled.

        A rejected promise (timeout, retries exhausted) leaves the interval
        open: the operation may or may not have taken effect, which is
        what a pending operation means to the checker.
        """
        row = [obj, client, op, args, self._now(), None, None]
        self._rows.append(row)

        def settle(settled: Any) -> None:
            if settled.fulfilled:
                row[5] = self._now()
                row[6] = settled.result()

        promise.on_settle(settle)

    def rows(self) -> List[Row]:
        """One row per operation; ``response`` is ``None`` while pending."""
        return [tuple(row) for row in self._rows]
