"""Replicated, sharded state services with coordinator election.

This package turns the middleware's single-host services (the idempotent
ledger, the tuple space, the shared-object store) into replicated, sharded
deployments without changing client-facing call shapes:

- :mod:`repro.replication.log` — the monotonically-indexed op log with
  term-stamped entries, quorum commit index, and compaction metadata.
- :mod:`repro.replication.replica` — a primary–backup replica node:
  ack-quorum commit, catch-up/state-transfer for lagging or recovered
  backups, and epoch/term fencing so a deposed primary's stale ops are
  rejected.
- :mod:`repro.replication.election` — Bully coordinator election, driven
  by :class:`repro.recovery.heartbeat.HeartbeatDetector` suspicion events.
- :mod:`repro.replication.shards` — hash-partitioning of keyed state
  across replica groups.
- :mod:`repro.replication.client` — the routing client: resolves shard →
  current primary, retries through election windows, load-balances reads
  across caught-up backups with an explicit consistency knob.
- :mod:`repro.replication.services` — state machines and client facades
  for the three existing services.
- :mod:`repro.replication.check` — the end-of-run invariants every harness
  judges a group by, its scorecard summary, and its teardown.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "GroupClient": "repro.replication.client",
    "ShardedClient": "repro.replication.client",
    "LogEntry": "repro.replication.log",
    "OpLog": "repro.replication.log",
    "Outcome": "repro.replication.replica",
    "ReplicaNode": "repro.replication.replica",
    "ReplicationParams": "repro.replication.replica",
    "StateMachine": "repro.replication.replica",
    "deploy_group": "repro.replication.replica",
    "deploy_sharded": "repro.replication.replica",
    "ShardMap": "repro.replication.shards",
})
