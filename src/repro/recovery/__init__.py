"""Recovery (Section 3.8).

"If middleware works with critical transactions, it must include a recovery
system to deal with failures. Sometimes a simple log-based scheme can be
used, while other times, sophisticated database recovery mechanisms must be
incorporated." Both are here:

* :mod:`repro.recovery.wal` — a checksummed write-ahead log over stable
  storage (the simple log-based scheme),
* :mod:`repro.recovery.checkpoint` — snapshot management bounding recovery
  work,
* :mod:`repro.recovery.store` — a transactional key-value store with
  redo/undo recovery (the database-style mechanism), crash-injectable,
* :mod:`repro.recovery.heartbeat` — a heartbeat failure detector.

Replication — the far end of the paper's recovery spectrum — is
:mod:`repro.replication` (op-log primary-backup, majority commit, election).
"""

from repro.recovery.checkpoint import Checkpoint, CheckpointManager
from repro.recovery.heartbeat import HeartbeatDetector
from repro.recovery.store import TransactionalStore
from repro.recovery.wal import LogRecord, StableStorage, WriteAheadLog

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "HeartbeatDetector",
    "TransactionalStore",
    "LogRecord",
    "StableStorage",
    "WriteAheadLog",
]
