"""Shared scaffolding for the replication test files.

A :class:`PartitionableFabric` extends the in-memory star fabric with a
crude but deterministic partition switch (frames crossing the isolated
set are dropped), and :class:`GroupHarness` stands up one replica group
plus a routing client with fast timers so whole failovers fit in a few
virtual seconds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.replication.client import GroupClient, ShardedClient
from repro.replication.replica import (
    ReplicaNode,
    ReplicationParams,
    StateMachine,
    deploy_group,
    deploy_sharded,
)
from repro.replication.services import KVMachine
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric

#: Fast timers: detection ~0.6s, election ~0.4s on top.
FAST = ReplicationParams(
    hb_interval_s=0.2,
    hb_timeout_multiplier=3.0,
    elect_timeout_s=0.2,
    sync_timeout_s=0.2,
    coord_timeout_s=0.5,
    beacon_interval_s=0.2,
    write_timeout_s=2.0,
)


class PartitionableFabric(InMemoryFabric):
    """In-memory fabric with an isolation set: frames between the isolated
    group and the rest are dropped (both directions)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.isolated: Set[str] = set()

    def isolate(self, *nodes: str) -> None:
        self.isolated = set(nodes)

    def heal(self) -> None:
        self.isolated = set()

    def _transmit(self, source, destination, payload):
        crosses = (source.node in self.isolated) != (
            destination.node in self.isolated
        )
        if crosses:
            self.messages_dropped += 1
            return
        super()._transmit(source, destination, payload)


class GroupHarness:
    """One replica group + one routing client on a partitionable fabric."""

    def __init__(
        self,
        n: int = 3,
        latency_s: float = 0.005,
        params: Optional[ReplicationParams] = None,
        machine_factory=KVMachine,
        port: str = "g",
        max_attempts: Optional[int] = 12,
    ):
        self.fabric = PartitionableFabric(latency_s=latency_s)
        self.sim = self.fabric.sim
        self.port = port
        self.node_ids = [f"r{i}" for i in range(n)]
        self.params = params if params is not None else FAST
        self.replicas: Dict[str, ReplicaNode] = deploy_group(
            lambda node, p: self.fabric.endpoint(node, p),
            self.node_ids,
            machine_factory,
            port=port,
            params=self.params,
        )
        self.client = GroupClient(
            self.fabric.endpoint("cli", "c"),
            [Address(node, port) for node in self.node_ids],
            request_timeout_s=0.4,
            max_attempts=max_attempts,
        )

    # ------------------------------------------------------------- helpers

    def run_until(self, deadline: float) -> None:
        self.sim.run_until(deadline)

    def run_for(self, duration: float) -> None:
        self.sim.run_until(self.sim.now() + duration)

    def crash(self, node: str) -> None:
        """Fail-stop: the member's endpoints close and timers cancel."""
        self.replicas[node].close()

    def primaries(self) -> Iterable[str]:
        return [
            node
            for node, replica in self.replicas.items()
            if not replica.closed and replica.role == "primary"
        ]

    def converged(self, nodes: Optional[Iterable[str]] = None) -> bool:
        """Do the (open) replicas agree on applied index and state?"""
        members = [
            self.replicas[n]
            for n in (nodes if nodes is not None else self.node_ids)
            if not self.replicas[n].closed
        ]
        if not members:
            return True
        head = members[0]
        return all(
            r.applied_index == head.applied_index
            and r.machine.snapshot() == head.machine.snapshot()
            for r in members[1:]
        )

    def close(self) -> None:
        for replica in self.replicas.values():
            replica.close()
        self.client.close()


class ShardedHarness:
    """``num_shards`` replica groups over one node set, plus a sharded client."""

    def __init__(
        self,
        n: int = 3,
        num_shards: int = 2,
        machine_factory=KVMachine,
        port: str = "kv",
        params: Optional[ReplicationParams] = None,
        latency_s: float = 0.005,
    ):
        self.fabric = PartitionableFabric(latency_s=latency_s)
        self.sim = self.fabric.sim
        self.node_ids = [f"r{i}" for i in range(n)]
        self.shard_map, self.replicas = deploy_sharded(
            lambda node, p: self.fabric.endpoint(node, p),
            self.node_ids,
            num_shards,
            machine_factory,
            port=port,
            params=params if params is not None else FAST,
        )
        self.client = ShardedClient(
            lambda shard: self.fabric.endpoint("cli", f"c{shard}"),
            self.shard_map,
            request_timeout_s=0.4,
        )

    def run_for(self, duration: float) -> None:
        self.sim.run_until(self.sim.now() + duration)

    def crash(self, node: str) -> None:
        """Fail-stop ``node``'s replicas in every shard group."""
        for shard_replicas in self.replicas.values():
            shard_replicas[node].close()

    def shard_primary(self, key: str) -> ReplicaNode:
        shard = self.shard_map.shard_of(key)
        for replica in self.replicas[shard].values():
            if not replica.closed and replica.role == "primary":
                return replica
        raise AssertionError(f"no live primary for shard {shard}")

    def close(self) -> None:
        for shard_replicas in self.replicas.values():
            for replica in shard_replicas.values():
                replica.close()
        self.client.close()
