"""Telemetry ingestion into the replicated ledger.

A gateway streams per-shard telemetry totals into a three-member replica
group as idempotent ledger transfers (one account per shard, drawn from an
``ingress`` pool so conservation is checkable on every replica). Periodic
balance reads double as linearizable-read probes for the simtest oracles.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.netsim import topology
from repro.netsim.energy import Battery
from repro.replication.check import check_group, close_group, group_summary
from repro.replication.client import GroupClient
from repro.replication.replica import ReplicationParams, deploy_group
from repro.replication.services import LedgerMachine, ReplicatedLedger
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.workloads.registry import Archetype, archetype

_PORT = "rled"
_MEMBERS = ("n0_1", "n1_0", "n1_1")
_SHARDS = ("s0", "s1", "s2", "s3")
_INGRESS_POOL = 1_000_000

#: Tight timers: the group lives on a well-connected 2x2 grid, and chaos
#: mixes need failover to complete inside the scenario's fault window.
_PARAMS = ReplicationParams(
    hb_interval_s=0.5,
    hb_timeout_multiplier=3.0,
    elect_timeout_s=0.8,
    sync_timeout_s=0.8,
    coord_timeout_s=1.6,
    beacon_interval_s=0.5,
    write_timeout_s=4.0,
)


@archetype(
    "telemetry_ledger",
    rate_rps=6.0,
    slo_target_s=0.4,
    description="gateway ingesting telemetry as idempotent transfers into "
    "a 3-replica ledger group",
)
class TelemetryLedger(Archetype):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.network = topology.grid(
            2, 2, spacing=60.0, seed=seed,
            battery_factory=lambda _nid: Battery(50.0),
        )
        self.fabric = SimFabric(self.network)
        self.initial_accounts: Dict[str, int] = {
            "ingress": _INGRESS_POOL, **{s: 0 for s in _SHARDS}
        }
        self.replicas = deploy_group(
            lambda node_id, port: self.fabric.endpoint(node_id, port),
            _MEMBERS,
            lambda: LedgerMachine(dict(self.initial_accounts)),
            port=_PORT, params=_PARAMS, group="tele",
        )
        self.client = GroupClient(
            self.fabric.endpoint("n0_0", f"{_PORT}.gw"),
            [Address(m, _PORT) for m in _MEMBERS],
            request_timeout_s=1.0, max_attempts=8,
        )
        self.ledger = ReplicatedLedger(self.client)
        self.acked: Dict[str, int] = {}
        # Balance probes run on a fixed cadence in every mode (history
        # recording must not change traffic); they start once the runner
        # drives the simulator.
        self._probe_index = 0
        self.sim.schedule_at(1.0, self._probe)

    def _probe(self) -> None:
        shard = _SHARDS[self._probe_index % len(_SHARDS)]
        self._probe_index += 1
        promise = self.ledger.balance(shard)
        self.record(("ledger",), "gateway", "balance", (shard,), promise)
        self.sim.schedule_at(self.sim.now() + 2.0, self._probe)

    def issue(self, index: int, size: int,
              done: Callable[[str], None]) -> None:
        txid = f"t{index}"
        shard = _SHARDS[index % len(_SHARDS)]
        amount = 1 + size % 16
        promise = self.ledger.transfer(txid, "ingress", shard, amount)
        self.record(("ledger",), "gateway", "transfer",
                    (txid, "ingress", shard, amount), promise)

        def settle(settled) -> None:
            if settled.fulfilled and settled.result() is True:
                self.acked[txid] = amount
                done("ok")
            else:
                done("failed")

        promise.on_settle(settle)

    def fault_targets(self) -> Sequence[str]:
        # Backups only: the group keeps its 2/3 quorum through one crash.
        return ("n0_1", "n1_0")

    def partition_groups(self) -> Optional[List[List[str]]]:
        return [["n0_1"], ["n1_0"]]

    def consistency_violations(self) -> List[str]:
        return [
            detail for _invariant, detail in check_group(
                self.replicas, self.acked,
                expected_total=sum(self.initial_accounts.values()),
            )
        ]

    def detail(self) -> Dict[str, object]:
        return {
            **group_summary(self.replicas),
            "acked": len(self.acked),
            "shard_totals": dict(
                sorted(
                    (s, self.replicas[_MEMBERS[0]].machine.balances.get(s, 0))
                    for s in _SHARDS
                )
            ),
        }

    def close(self) -> None:
        close_group(self.replicas)
        self.client.close()
