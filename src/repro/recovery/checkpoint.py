"""Checkpointing: bounding how much log recovery must replay.

A checkpoint record carries a snapshot of the committed state plus the set
of transactions live at snapshot time. Recovery starts from the most recent
checkpoint instead of the beginning of the log; the E8 bench sweeps the
checkpoint interval to show the recovery-time / runtime-overhead tradeoff.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.recovery.wal import CHECKPOINT, LogRecord, WriteAheadLog


class Checkpoint:
    """Decoded checkpoint contents.

    ``redo_from_lsn`` is where recovery must start scanning: the minimum
    BEGIN lsn among transactions live at checkpoint time (their updates may
    precede the checkpoint but commit after it), or just past the
    checkpoint when none were live. Replaying a little extra history is
    harmless — updates are idempotent after-images — but starting too late
    would lose committed writes.
    """

    __slots__ = ("lsn", "state", "redo_from_lsn")

    def __init__(self, lsn: int, state: Dict[str, Any],
                 redo_from_lsn: int) -> None:
        self.lsn = lsn
        self.state = state
        self.redo_from_lsn = redo_from_lsn

    @staticmethod
    def from_record(record: LogRecord) -> "Checkpoint":
        payload = record.payload or {}
        return Checkpoint(
            lsn=record.lsn,
            state=dict(payload.get("state", {})),
            redo_from_lsn=int(payload.get("redo_from", record.lsn + 1)),
        )


class CheckpointManager:
    """Writes checkpoints every ``interval_ops`` logged operations."""

    def __init__(self, log: WriteAheadLog, interval_ops: int = 100):
        if interval_ops <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {interval_ops}")
        self.log = log
        self.interval_ops = interval_ops
        self._ops_since_checkpoint = 0
        self.checkpoints_taken = 0

    def note_operation(self) -> bool:
        """Count one logged operation; returns True when a checkpoint is due."""
        self._ops_since_checkpoint += 1
        return self._ops_since_checkpoint >= self.interval_ops

    def take(
        self,
        state: Dict[str, Any],
        live_transactions: List[str],
        redo_from_lsn: Optional[int] = None,
    ) -> LogRecord:
        """Write a checkpoint record and reset the counter."""
        record = self.log.append(
            CHECKPOINT,
            payload={
                "state": dict(state),
                "live": list(live_transactions),
                # Just past the record's own lsn when no live transaction
                # pins an earlier redo point.
                "redo_from": (
                    redo_from_lsn if redo_from_lsn is not None
                    else self.log.next_lsn + 1
                ),
            },
        )
        self._ops_since_checkpoint = 0
        self.checkpoints_taken += 1
        return record

    def latest(self) -> Optional[Checkpoint]:
        record = self.log.last_checkpoint()
        return Checkpoint.from_record(record) if record is not None else None
