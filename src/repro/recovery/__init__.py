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

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "Checkpoint": "repro.recovery.checkpoint",
    "CheckpointManager": "repro.recovery.checkpoint",
    "HeartbeatDetector": "repro.recovery.heartbeat",
    "TransactionalStore": "repro.recovery.store",
    "LogRecord": "repro.recovery.wal",
    "StableStorage": "repro.recovery.wal",
    "WriteAheadLog": "repro.recovery.wal",
})
