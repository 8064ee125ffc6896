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

from repro.replication.client import GroupClient, ShardedClient
from repro.replication.log import LogEntry, OpLog
from repro.replication.replica import (
    Outcome,
    ReplicaNode,
    ReplicationParams,
    StateMachine,
    deploy_group,
    deploy_sharded,
)
from repro.replication.shards import ShardMap

__all__ = [
    "GroupClient",
    "LogEntry",
    "OpLog",
    "Outcome",
    "ReplicaNode",
    "ReplicationParams",
    "ShardMap",
    "ShardedClient",
    "StateMachine",
    "deploy_group",
    "deploy_sharded",
]
