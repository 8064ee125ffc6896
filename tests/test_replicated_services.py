"""Replicated service adapters: ledger, shared objects, tuple space."""

import pytest

from repro.replication.services import (
    KVMachine,
    LedgerMachine,
    ReplicatedLedger,
    ReplicatedSharedObjects,
    ReplicatedTupleSpace,
    ShardedLedger,
    TupleSpaceMachine,
)

from tests.replication_helpers import GroupHarness, ShardedHarness


class TestReplicatedLedger:
    def test_transfer_and_balance(self):
        h = GroupHarness(
            machine_factory=lambda: LedgerMachine({"a": 100, "b": 0})
        )
        ledger = ReplicatedLedger(h.client)
        done = ledger.transfer("t1", "a", "b", 30)
        h.run_for(1.0)
        assert done.result() is True
        balances = [ledger.balance("a"), ledger.balance("b")]
        h.run_for(1.0)
        assert [b.result() for b in balances] == [70, 30]
        h.close()

    def test_transfer_txid_is_idempotent(self):
        h = GroupHarness(
            machine_factory=lambda: LedgerMachine({"a": 100, "b": 0})
        )
        ledger = ReplicatedLedger(h.client)
        first = ledger.transfer("t1", "a", "b", 30)
        h.run_for(1.0)
        second = ledger.transfer("t1", "a", "b", 30)  # replayed txid
        h.run_for(1.0)
        assert first.result() is True and second.result() is True
        primary = h.replicas[h.primaries()[0]]
        assert primary.machine.balances == {"a": 70, "b": 30}
        h.close()

    def test_insufficient_funds_refused_not_applied(self):
        h = GroupHarness(
            machine_factory=lambda: LedgerMachine({"a": 10, "b": 0})
        )
        ledger = ReplicatedLedger(h.client)
        refused = ledger.transfer("t1", "a", "b", 30)
        h.run_for(1.0)
        assert refused.result() is False
        primary = h.replicas[h.primaries()[0]]
        assert primary.machine.balances == {"a": 10, "b": 0}
        h.close()

    def test_a_restored_ledger_snapshots_and_dedups_as_its_source(self):
        machine = LedgerMachine({"a": 10, "b": 0})
        for txid in ("t2", "t0", "t1"):
            machine.apply("transfer", (txid, "a", "b", 1))
        restored = LedgerMachine()
        restored.restore(machine.snapshot())
        assert restored.snapshot() == machine.snapshot()
        assert restored.snapshot()["applied"] == ["t0", "t1", "t2"]
        assert restored.apply("transfer", ("t0", "a", "b", 5)).result is True
        assert restored.balances == {"a": 7, "b": 3}
        with pytest.raises(TypeError):
            restored.restore({"balances": {}, "applied": [["t0"]]})


class TestShardedLedger:
    def test_deposits_route_by_account_across_shards(self):
        h = ShardedHarness(num_shards=4, machine_factory=LedgerMachine)
        ledger = ShardedLedger(h.client)
        accounts = [f"acct-{i}" for i in range(8)]
        deposits = [
            ledger.deposit(f"tx-{i}", account, 10)
            for i, account in enumerate(accounts)
        ]
        h.run_for(2.0)
        assert all(d.fulfilled for d in deposits)
        touched_shards = {
            shard
            for shard, members in h.replicas.items()
            for replica in members.values()
            if replica.applied_index > 0
            for shard in [shard]
        }
        assert len(touched_shards) > 1  # the keyspace actually partitioned
        balances = [ledger.balance(a) for a in accounts]
        h.run_for(2.0)
        assert all(b.result() == 10 for b in balances)
        h.close()


class TestReplicatedSharedObjects:
    def test_write_returns_version_read_returns_value(self):
        h = ShardedHarness()
        objects = ReplicatedSharedObjects(h.client)
        write = objects.write("cfg", {"ttl": 5})
        h.run_for(1.0)
        assert write.result() == 1
        again = objects.write("cfg", {"ttl": 6})
        h.run_for(1.0)
        assert again.result() == 2
        read = objects.read("cfg")
        h.run_for(1.0)
        assert read.result() == {"ttl": 6}
        h.close()

    def test_no_replica_holds_the_writers_or_the_readers_object(self):
        # The value crosses the in-process fabric by reference; each replica
        # must keep its own copy and a read must hand back a fresh one, as
        # the unreplicated SharedObjectCache does.
        h = ShardedHarness()
        objects = ReplicatedSharedObjects(h.client)
        value = {"hr": [60]}
        write = objects.write("vitals", value)
        h.run_for(1.0)
        assert write.result() == 1
        value["hr"].append(61)
        value["spo2"] = 97
        replicas = h.replicas[h.shard_map.shard_of("vitals")].values()
        assert [r.machine.read("read", ("vitals",)) for r in replicas] == [
            {"hr": [60]}] * 3
        read = objects.read("vitals")
        h.run_for(1.0)
        assert read.result() == {"hr": [60]}
        read.result().clear()
        assert [r.machine.read("read", ("vitals",)) for r in replicas] == [
            {"hr": [60]}] * 3
        stored = [r.machine.objects["vitals"][0] for r in replicas]
        assert len({id(v) for v in stored}) == 3
        assert len({id(v["hr"]) for v in stored}) == 3
        h.close()

    def test_a_restored_replica_holds_its_own_copy(self):
        # A snapshot reaches a lagging backup by reference too.
        primary, backup = KVMachine(), KVMachine()
        primary.apply("write", ("vitals", {"hr": [60]}))
        backup.restore(primary.snapshot())
        primary.objects["vitals"][0]["hr"].append(61)
        assert backup.read("read", ("vitals",)) == {"hr": [60]}

    def test_relaxed_read_mode_passes_through(self):
        h = ShardedHarness()
        objects = ReplicatedSharedObjects(h.client)
        write = objects.write("k", "v")
        h.run_for(1.0)
        assert write.fulfilled
        read = objects.read("k", mode="any")
        h.run_for(1.0)
        assert read.result() == "v"
        h.close()


class TestReplicatedTupleSpace:
    def test_out_probe_and_take(self):
        h = ShardedHarness(machine_factory=TupleSpaceMachine, port="ts")
        space = ReplicatedTupleSpace(h.client)
        space.out("job", 1)
        h.run_for(1.0)
        probe = space.rdp("job", None)
        h.run_for(1.0)
        assert probe.result() == ["job", 1]
        take = space.inp("job", None)
        h.run_for(1.0)
        assert take.result() == ["job", 1]
        empty = space.inp("job", None)
        h.run_for(1.0)
        assert empty.result() is None
        h.close()

    def test_blocking_in_woken_by_later_out(self):
        h = ShardedHarness(machine_factory=TupleSpaceMachine, port="ts")
        space = ReplicatedTupleSpace(h.client)
        blocked = space.in_("evt", None)
        h.run_for(1.0)
        assert blocked.pending
        space.out("evt", "fired")
        h.run_for(1.0)
        assert blocked.result() == ["evt", "fired"]
        h.close()

    def test_waiter_survives_primary_failover(self):
        h = ShardedHarness(machine_factory=TupleSpaceMachine, port="ts")
        space = ReplicatedTupleSpace(h.client)
        blocked = space.in_("job", None)
        h.run_for(1.0)
        assert blocked.pending
        # The waiter is replicated state: kill the primary node, let every
        # shard re-elect, and the new primary still owes this request the
        # next matching tuple.
        h.crash("r2")
        h.run_for(4.0)
        space.out("job", 7)
        space.out("job", 8)
        h.run_for(3.0)
        assert blocked.result() == ["job", 7]
        # The retried blocking rid consumed exactly one tuple.
        leftover = space.inp("job", None)
        h.run_for(2.0)
        assert leftover.result() == ["job", 8]
        h.close()

    def test_no_replica_holds_the_writers_nested_list(self):
        # The tuple crosses the in-process fabric by reference, as a shared
        # object's value does: each replica stores its own copy all the way
        # down, and a nested tuple is a list, as bytes would have made it.
        h = ShardedHarness(machine_factory=TupleSpaceMachine, port="ts")
        space = ReplicatedTupleSpace(h.client)
        inner = [1, 2]
        written = space.out("k", inner, (5, 6), confirm=True)
        h.run_for(1.0)
        assert written.result() == ["k", [1, 2], [5, 6]]
        inner.append(3)
        replicas = h.replicas[h.shard_map.shard_of("k")].values()
        assert [r.machine.snapshot()["tuples"] for r in replicas] == [
            [["k", [1, 2], [5, 6]]]] * 3
        stored = [next(iter(r.machine.tuples)) for r in replicas]
        assert len({id(t[1]) for t in stored}) == 3
        probe = space.rdp("k", None, [5, 6])
        h.run_for(1.0)
        assert probe.result() == ["k", [1, 2], [5, 6]]
        h.close()

    def test_wakeups_results_and_restores_share_no_list(self):
        machine = TupleSpaceMachine()
        for rid in ("a", "b"):
            assert machine.apply("rd", (["k", None], rid)).pending
        inner = [1]
        out = machine.apply("out", (["k", inner],))
        inner.append(2)
        woken = [result for _rid, result in out.wakeups]
        assert woken == [["k", [1]]] * 2 and out.result == ["k", [1]]
        held = [out.result, *woken, next(iter(machine.tuples))]
        assert len({id(v[1]) for v in held}) == len(held)
        restored = TupleSpaceMachine()
        restored.restore(machine.snapshot())
        assert next(iter(restored.tuples))[1] is not held[-1][1]

    def test_wildcard_first_element_rejected(self):
        h = ShardedHarness(machine_factory=TupleSpaceMachine, port="ts")
        space = ReplicatedTupleSpace(h.client)
        try:
            space.rdp(None, "x")
            raised = False
        except ValueError:
            raised = True
        assert raised
        h.close()
