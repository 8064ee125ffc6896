"""The replicated op log.

Every state mutation travels through a :class:`OpLog`: a monotonically
indexed, term-stamped sequence of :class:`LogEntry` records. Indices are
1-based; index 0 is the empty prefix (term 0). The log tracks a commit
index (everything at or below it is replicated on an ack quorum and safe
to apply) and compaction metadata (``snapshot_index``/``snapshot_term``)
so a primary can discard the applied prefix and bring a far-behind backup
up via state transfer instead of replaying history.

The log itself is deliberately passive — all protocol decisions (when to
append, truncate, or advance commit) live in
:mod:`repro.replication.replica`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.interop.codec import register_record_type


class LogEntry:
    """One replicated operation.

    ``rid`` is the client-chosen request id used for at-most-once
    application (retries of an already-logged rid never re-append).

    An entry is immutable: nothing assigns a field after ``__init__``, and
    ``args`` is a tuple. So an append or sync frame carries the entries
    themselves, and every replica that receives it by reference logs the
    primary's own objects; the codec sizes and encodes an entry as its
    :meth:`to_wire` dict, which is what a replica rebuilds from real bytes.
    """

    __slots__ = ("index", "term", "rid", "name", "args")

    def __init__(self, index: int, term: int, rid: str, name: str,
                 args: Tuple[Any, ...]) -> None:
        self.index = index
        self.term = term
        self.rid = rid
        self.name = name
        self.args = args

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.index, self.term, self.rid, self.name, self.args)
            == (other.index, other.term, other.rid, other.name, other.args)
        )

    def __hash__(self) -> int:
        return hash((self.index, self.term, self.rid, self.name, self.args))

    def to_wire(self) -> Dict[str, Any]:
        return {
            "i": self.index,
            "t": self.term,
            "r": self.rid,
            "n": self.name,
            "a": list(self.args),
        }

    @staticmethod
    def from_wire(raw: Any) -> "LogEntry":
        """Rebuild an entry from its wire form; nothing is coerced — a field
        of the wrong type is a ``TypeError``, a missing one a ``KeyError``.
        An entry passed by reference is returned as it is."""
        if raw.__class__ is LogEntry:
            return raw
        index, term, rid, name, args = (
            raw["i"], raw["t"], raw["r"], raw["n"], raw["a"])
        if not (isinstance(index, int) and isinstance(term, int)
                and isinstance(rid, str) and isinstance(name, str)
                and isinstance(args, (list, tuple))):
            raise TypeError(f"malformed log entry: {raw!r}")
        return LogEntry(index, term, rid, name, tuple(args))


register_record_type(LogEntry, LogEntry.to_wire)


class OpLog:
    """A 1-based, compactable op log with a commit watermark.

    ``last_index`` is a stored field, ``snapshot_index + len(retained
    entries)`` at all times: the five mutators, the only code that touches
    ``_entries``, keep it in step (the replica reads it per message).
    """

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self.snapshot_index = 0  # everything <= this has been compacted away
        self.snapshot_term = 0
        self.commit_index = 0
        self.last_index = 0

    # -------------------------------------------------------------- queries

    @property
    def first_index(self) -> int:
        """Index of the first retained entry (snapshot_index + 1)."""
        return self.snapshot_index + 1

    def entry(self, index: int) -> Optional[LogEntry]:
        """The retained entry at ``index``, or None if absent/compacted."""
        offset = index - self.snapshot_index - 1
        if 0 <= offset < len(self._entries):
            return self._entries[offset]
        return None

    def term_at(self, index: int) -> Optional[int]:
        """Term of the entry at ``index``; 0 for the empty prefix, None if
        unknown (beyond the log, or compacted below the snapshot)."""
        if index == 0:
            return 0
        if index == self.snapshot_index:
            return self.snapshot_term
        entry = self.entry(index)
        return entry.term if entry is not None else None

    def entries_from(self, index: int) -> List[LogEntry]:
        """All retained entries with index >= ``index``."""
        offset = max(0, index - self.first_index)
        return list(self._entries[offset:])

    # ------------------------------------------------------------ mutations

    def append(self, term: int, rid: str, name: str, args: Tuple[Any, ...]) -> LogEntry:
        entry = LogEntry(self.last_index + 1, term, rid, name, tuple(args))
        self._entries.append(entry)
        self.last_index = entry.index
        return entry

    def extend(self, entries: List[LogEntry]) -> None:
        """Append pre-built entries; indices must continue the log exactly."""
        for entry in entries:
            if entry.index != self.last_index + 1:
                raise ConfigurationError(
                    f"log extend out of order: expected index "
                    f"{self.last_index + 1}, got {entry.index}"
                )
            self._entries.append(entry)
            self.last_index = entry.index

    def truncate_from(self, index: int) -> int:
        """Drop every entry with index >= ``index``; returns dropped count.

        Never allowed to cross the commit watermark — committed entries are
        immutable by construction, a caller asking to drop one is a protocol
        bug.
        """
        if index <= self.commit_index:
            raise ConfigurationError(
                f"refusing to truncate committed prefix: index {index} <= "
                f"commit {self.commit_index}"
            )
        offset = max(0, index - self.first_index)
        dropped = len(self._entries) - offset
        if dropped > 0:
            del self._entries[offset:]
            self.last_index -= dropped
        return max(0, dropped)

    def compact_to(self, index: int) -> None:
        """Discard entries at or below ``index`` (must be committed)."""
        if index > self.commit_index:
            raise ConfigurationError(
                f"cannot compact beyond commit: {index} > {self.commit_index}"
            )
        if index <= self.snapshot_index:
            return
        term = self.term_at(index)
        offset = index - self.first_index + 1
        del self._entries[:offset]
        self.snapshot_index = index
        self.snapshot_term = term if term is not None else 0
        self.last_index = index + len(self._entries)

    def reset(self, index: int, term: int) -> None:
        """Replace the whole log with a snapshot boundary (state transfer)."""
        self._entries = []
        self.snapshot_index = self.last_index = index
        self.snapshot_term = term
        self.commit_index = index
