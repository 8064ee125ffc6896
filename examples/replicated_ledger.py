"""Failover demo: a 3-replica x 4-shard replicated ledger.

Stands up four replica groups (one per shard) over the same three nodes
on an in-memory virtual-time fabric, deposits into a handful of
accounts through a :class:`~repro.replication.services.ShardedLedger`,
then crashes the primary of *every* shard mid-run. The Bully election
promotes a survivor per group, the client's redirect/failover logic
re-routes without application changes, and the demo prints the balances
before and after to show no acknowledged deposit was lost.

Everything is virtual time, so the output is deterministic.

Run:  python examples/replicated_ledger.py
"""

from repro.replication.client import ShardedClient
from repro.replication.replica import ReplicationParams, deploy_sharded
from repro.replication.services import LedgerMachine, ShardedLedger
from repro.transport.inmemory import InMemoryFabric

REPLICAS = ("r0", "r1", "r2")  # r2 (highest id) starts as every primary
NUM_SHARDS = 4
ACCOUNTS = ("alice", "bob", "carol", "dave", "erin", "frank")

PARAMS = ReplicationParams(
    hb_interval_s=0.3,
    hb_timeout_multiplier=3.0,
    elect_timeout_s=0.3,
    sync_timeout_s=0.3,
    coord_timeout_s=0.8,
    beacon_interval_s=0.3,
    write_timeout_s=3.0,
)


def main() -> int:
    fabric = InMemoryFabric(latency_s=0.001)
    sim = fabric.sim

    shard_map, replicas = deploy_sharded(
        lambda node, port: fabric.endpoint(node, port),
        REPLICAS, NUM_SHARDS, LedgerMachine, port="led", params=PARAMS,
    )
    client = ShardedClient(
        lambda shard: fabric.endpoint("app", f"led.c{shard}"),
        shard_map,
        request_timeout_s=0.5, max_attempts=16,
    )
    ledger = ShardedLedger(client)

    placement = {a: shard_map.shard_of(a) for a in ACCOUNTS}
    print(f"{NUM_SHARDS} shards x {len(REPLICAS)} replicas, "
          f"accounts -> shards: {placement}")

    # Phase 1: deposits with every shard's initial primary (r2) healthy.
    before = [ledger.deposit(f"d{i}", a, 100)
              for i, a in enumerate(ACCOUNTS)]
    sim.run_until(2.0)
    assert all(p.fulfilled for p in before), "healthy-phase deposits hung"
    print("t=2.0  deposited 100 into each account via primary r2")

    # Phase 2: kill r2 — the current primary of all four groups.
    for shard in range(NUM_SHARDS):
        replicas[shard]["r2"].close()
    print("t=2.0  crashed r2 (primary of every shard)")

    # Deposits issued while elections run: the client retries through
    # redirects until each group's new primary (r1) answers.
    during = [ledger.deposit(f"e{i}", a, 10)
              for i, a in enumerate(ACCOUNTS)]
    sim.run_until(8.0)
    assert all(p.fulfilled for p in during), "failover deposits hung"

    for shard in range(NUM_SHARDS):
        roles = {n: r.role for n, r in replicas[shard].items()
                 if n != "r2"}
        terms = {n: r.term for n, r in replicas[shard].items()
                 if n != "r2"}
        primaries = [n for n, role in roles.items() if role == "primary"]
        assert primaries == ["r1"], (shard, roles)
        print(f"t=8.0  shard {shard}: primary={primaries[0]} "
              f"terms={terms}")

    # Phase 3: balances from the survivors — every ack survived.
    reads = {a: ledger.balance(a) for a in ACCOUNTS}
    sim.run_until(9.0)
    balances = {a: p.result() for a, p in reads.items()}
    print(f"t=9.0  balances: {balances}")
    assert all(v == 110 for v in balances.values()), balances

    client.close()
    for shard in range(NUM_SHARDS):
        for node in ("r0", "r1"):
            replicas[shard][node].close()
    print("ok: all deposits survived the primary crash on every shard")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
