"""A transactional key-value store with log-based crash recovery.

The "critical transactions" target of Section 3.8. Semantics:

* ``begin() -> txid``; writes inside a transaction are invisible to readers
  until ``commit`` (read-committed with own-writes visibility);
* every write is WAL-logged (before/after images) *before* touching any
  state — the write-ahead rule;
* ``crash()`` throws away all volatile state; ``recover()`` rebuilds from
  the most recent checkpoint plus the log: redo committed transactions,
  discard (never apply) uncommitted ones.

Invariant the property tests hammer: after any crash at any point, exactly
the committed transactions' effects are visible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import RecoveryError, TransactionAborted
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.wal import (
    ABORT,
    BEGIN,
    CHECKPOINT,
    COMMIT,
    UPDATE,
    StableStorage,
    WriteAheadLog,
    committed_transactions,
)
from repro.util.ids import IdGenerator


class TransactionalStore:
    """Crash-recoverable KV store."""

    def __init__(
        self,
        storage: Optional[StableStorage] = None,
        checkpoint_interval_ops: int = 100,
    ):
        self.storage = storage if storage is not None else StableStorage()
        self.log = WriteAheadLog(self.storage)
        self.checkpoints = CheckpointManager(self.log, checkpoint_interval_ops)
        self._ids = IdGenerator("tx")
        # Volatile state (lost on crash):
        self._committed: Dict[str, Any] = {}
        self._pending: Dict[str, Dict[str, Any]] = {}  # txid -> key -> value
        self._pending_begin_lsn: Dict[str, int] = {}
        self._crashed = False
        self.last_recovery_records_scanned = 0
        self.recover()

    # ------------------------------------------------------------- liveness

    def crash(self) -> None:
        """Lose all volatile state (stable storage survives)."""
        self._committed = {}
        self._pending = {}
        self._pending_begin_lsn = {}
        self._crashed = True

    def _check_up(self) -> None:
        if self._crashed:
            raise RecoveryError("store has crashed; call recover() first")

    # ------------------------------------------------------------- recovery

    def recover(self) -> None:
        """Rebuild committed state from checkpoint + log."""
        checkpoint = self.checkpoints.latest()
        if checkpoint is not None:
            state: Dict[str, Any] = dict(checkpoint.state)
            # Start redo at the earliest BEGIN of a transaction live at
            # checkpoint time: its pre-checkpoint updates are not in the
            # snapshot but may have committed afterwards. Replaying already-
            # snapshotted updates is harmless (after-images are idempotent).
            start_lsn = min(checkpoint.redo_from_lsn, checkpoint.lsn + 1)
        else:
            state = {}
            start_lsn = 0
        records = list(self.log.scan(start_lsn))
        outcomes = committed_transactions(records)
        if checkpoint is not None:
            # Transactions that only appear as pre-checkpoint BEGINs are
            # classified by their post-checkpoint outcome records.
            for record in records:
                if record.kind == COMMIT and record.txid is not None:
                    outcomes[record.txid] = True
        for record in records:
            if record.kind == UPDATE and outcomes.get(record.txid):
                if record.after is None:
                    state.pop(record.key, None)
                else:
                    state[record.key] = record.after
        self._committed = state
        self._pending = {}
        self._crashed = False
        self.last_recovery_records_scanned = len(records)

    # ----------------------------------------------------------- transactions

    def begin(self) -> str:
        self._check_up()
        txid = self._ids.next()
        record = self.log.append(BEGIN, txid=txid)
        self._pending[txid] = {}
        self._pending_begin_lsn[txid] = record.lsn
        return txid

    def _require_tx(self, txid: str) -> Dict[str, Any]:
        try:
            return self._pending[txid]
        except KeyError:
            raise TransactionAborted(f"transaction {txid!r} is not active") from None

    def put(self, txid: str, key: str, value: Any) -> None:
        self._check_up()
        writes = self._require_tx(txid)
        before = writes.get(key, self._committed.get(key))
        self.log.append(UPDATE, txid=txid, key=key, before=before, after=value)
        writes[key] = value
        self._maybe_checkpoint()

    def get(self, key: str, txid: Optional[str] = None) -> Any:
        """Committed value — or the transaction's own uncommitted write when
        ``txid`` is given (read-your-writes)."""
        self._check_up()
        if txid is not None and txid in self._pending and key in self._pending[txid]:
            return self._pending[txid][key]
        return self._committed.get(key)

    def commit(self, txid: str) -> None:
        self._check_up()
        writes = self._require_tx(txid)
        # Write-ahead rule: COMMIT hits the log before state mutates.
        self.log.append(COMMIT, txid=txid)
        for key, value in writes.items():
            if value is None:
                self._committed.pop(key, None)
            else:
                self._committed[key] = value
        del self._pending[txid]
        self._pending_begin_lsn.pop(txid, None)
        self._maybe_checkpoint()

    def abort(self, txid: str) -> None:
        self._check_up()
        self._require_tx(txid)
        self.log.append(ABORT, txid=txid)
        del self._pending[txid]
        self._pending_begin_lsn.pop(txid, None)

    def _maybe_checkpoint(self) -> None:
        if self.checkpoints.note_operation():
            redo_from = (
                min(self._pending_begin_lsn.values())
                if self._pending_begin_lsn
                else None
            )
            self.checkpoints.take(self._committed, list(self._pending), redo_from)

    # ------------------------------------------------------------- inspection

    def snapshot(self) -> Dict[str, Any]:
        self._check_up()
        return dict(self._committed)

    def __len__(self) -> int:
        self._check_up()
        return len(self._committed)
