"""Deterministic identifier generation.

Identifiers in the middleware (message ids, transaction ids, lease ids, ...)
are generated from per-scope counters rather than UUIDs so that simulation
runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
from typing import Iterator


class SequenceGenerator:
    """A monotonically increasing integer sequence starting at ``start``."""

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def next(self) -> int:
        return next(self._counter)

    def __iter__(self) -> Iterator[int]:
        return self._counter


class IdGenerator:
    """Generates string ids of the form ``"<prefix>-<n>"``.

    A single generator is typically owned by one subsystem instance (e.g. one
    RPC endpoint), giving ids that are unique within that scope and stable
    across runs.
    """

    def __init__(self, prefix: str):
        if not prefix:
            raise ValueError("id prefix must be non-empty")
        self.prefix = prefix
        self._seq = SequenceGenerator()

    def next(self) -> str:
        return f"{self.prefix}-{self._seq.next()}"
