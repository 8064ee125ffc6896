"""Write-ahead logging over stable storage.

:class:`StableStorage` is the piece of the world that survives a crash: in
the simulation it is simply an object the crashed component does *not* own,
with optional corruption injection for the recovery tests. The
:class:`WriteAheadLog` appends checksummed records to it; on recovery the
log is scanned forward and the first integrity violation truncates the tail
(a half-written record at crash time must not poison recovery).

Record kinds used by the transactional store: ``BEGIN``, ``UPDATE`` (with
before/after images), ``COMMIT``, ``ABORT``, ``CHECKPOINT``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import LogCorruptionError
from repro.interop.codec import BinaryCodec

BEGIN = "BEGIN"
UPDATE = "UPDATE"
COMMIT = "COMMIT"
ABORT = "ABORT"
CHECKPOINT = "CHECKPOINT"

_codec = BinaryCodec()


class LogRecord:
    """One durable log entry."""

    __slots__ = ("lsn", "kind", "txid", "key", "before", "after", "payload")

    def __init__(self, lsn: int, kind: str, txid: Optional[str] = None,
                 key: Optional[str] = None, before: Any = None,
                 after: Any = None, payload: Any = None) -> None:
        self.lsn = lsn
        self.kind = kind
        self.txid = txid
        self.key = key
        self.before = before
        self.after = after
        self.payload = payload  # checkpoint snapshots, etc.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.lsn, self.kind, self.txid, self.key, self.before, self.after,
             self.payload)
            == (other.lsn, other.kind, other.txid, other.key, other.before,
                other.after, other.payload)
        )

    def __hash__(self) -> int:
        return hash((self.lsn, self.kind, self.txid, self.key, self.before,
                     self.after, self.payload))

    def encode(self) -> bytes:
        body = _codec.encode(
            {
                "lsn": self.lsn,
                "kind": self.kind,
                "txid": self.txid,
                "key": self.key,
                "before": self.before,
                "after": self.after,
                "payload": self.payload,
            }
        )
        checksum = zlib.crc32(body)
        return checksum.to_bytes(4, "big") + body

    @staticmethod
    def decode(raw: bytes) -> "LogRecord":
        if len(raw) < 4:
            raise LogCorruptionError("log record too short for checksum")
        expected = int.from_bytes(raw[:4], "big")
        body = raw[4:]
        if zlib.crc32(body) != expected:
            raise LogCorruptionError("log record checksum mismatch")
        fields = _codec.decode(body)
        return LogRecord(
            lsn=fields["lsn"],
            kind=fields["kind"],
            txid=fields.get("txid"),
            key=fields.get("key"),
            before=fields.get("before"),
            after=fields.get("after"),
            payload=fields.get("payload"),
        )


class StableStorage:
    """Crash-surviving storage: an append-only list of encoded records.

    :meth:`truncate` drops a torn tail when the log repairs itself.
    """

    __slots__ = ("blobs",)

    def __init__(self) -> None:
        self.blobs: List[bytes] = []

    def append(self, blob: bytes) -> None:
        # Durable storage holds real bytes only — a lazy wire frame handed
        # in here is materialized, never stored by reference.
        self.blobs.append(bytes(blob))

    def __len__(self) -> int:
        return len(self.blobs)

    def truncate(self, keep: int) -> None:
        del self.blobs[keep:]


class WriteAheadLog:
    """Appends and scans checksummed records on stable storage.

    Opening the log repairs a torn tail: blobs from the first corrupt one
    onward are discarded, exactly as a database truncates a half-written
    tail at restart. Without this, a record appended *after* a corrupt blob
    would be invisible to every future scan — silent data loss.
    """

    def __init__(self, storage: Optional[StableStorage] = None):
        self.storage = storage if storage is not None else StableStorage()
        self.truncated_on_open = self._repair_tail()
        self._next_lsn = self._scan_next_lsn()

    def _repair_tail(self) -> int:
        """Drop blobs from the first corrupt one; returns how many."""
        valid = 0
        for blob in self.storage.blobs:
            try:
                LogRecord.decode(blob)
            except LogCorruptionError:
                break
            valid += 1
        dropped = len(self.storage.blobs) - valid
        if dropped:
            self.storage.truncate(valid)
        return dropped

    def _scan_next_lsn(self) -> int:
        highest = 0
        for record in self.scan():
            highest = max(highest, record.lsn)
        return highest + 1

    # --------------------------------------------------------------- writing

    @property
    def next_lsn(self) -> int:
        """The lsn the next :meth:`append` assigns."""
        return self._next_lsn

    def append(
        self,
        kind: str,
        txid: Optional[str] = None,
        key: Optional[str] = None,
        before: Any = None,
        after: Any = None,
        payload: Any = None,
    ) -> LogRecord:
        record = LogRecord(self._next_lsn, kind, txid, key, before, after, payload)
        self._next_lsn += 1
        self.storage.append(record.encode())
        return record

    # --------------------------------------------------------------- reading

    def scan(self, from_lsn: int = 0) -> Iterator[LogRecord]:
        """Yield records with lsn >= from_lsn, stopping at the first
        corrupt entry (the torn tail) — records before it are intact
        because the log is append-only."""
        for blob in self.storage.blobs:
            try:
                record = LogRecord.decode(blob)
            except LogCorruptionError:
                return
            if record.lsn >= from_lsn:
                yield record

    def last_checkpoint(self) -> Optional[LogRecord]:
        found: Optional[LogRecord] = None
        for record in self.scan():
            if record.kind == CHECKPOINT:
                found = record
        return found

    def records(self) -> List[LogRecord]:
        return list(self.scan())

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())


def committed_transactions(records: List[LogRecord]) -> Dict[str, bool]:
    """Map txid -> committed? over a record list (analysis pass)."""
    outcome: Dict[str, bool] = {}
    for record in records:
        if record.kind == BEGIN and record.txid is not None:
            outcome.setdefault(record.txid, False)
        elif record.kind == COMMIT and record.txid is not None:
            outcome[record.txid] = True
        elif record.kind == ABORT and record.txid is not None:
            outcome[record.txid] = False
    return outcome
