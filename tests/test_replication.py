"""Tests for the replication core: log, quorum commit, catch-up, reads."""

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ConfigurationError, DeliveryError, TransactionAborted
from repro.replication.client import GroupClient
from repro.replication.log import LogEntry, OpLog
from repro.replication.replica import (
    _REJECTED, NOOP, ReplicationParams, deploy_group)
from repro.replication.services import (
    KVMachine, LedgerMachine, TupleSpaceMachine)
from repro.replication.shards import ShardMap
from repro.transport.base import Address
from repro.transport.endpoint import MALFORMED
from repro.transport.inmemory import InMemoryFabric

from tests.replication_helpers import FAST, GroupHarness


class TestOpLog:
    def test_append_is_monotonic_and_one_based(self):
        log = OpLog()
        first = log.append(1, "a", "put", ("k", 1))
        second = log.append(1, "b", "put", ("k", 2))
        assert (first.index, second.index) == (1, 2)
        assert log.last_index == 2
        assert log.entry(1) == first

    def test_term_at_boundaries(self):
        log = OpLog()
        log.append(3, "a", "put", ())
        assert log.term_at(0) == 0
        assert log.term_at(1) == 3
        assert log.term_at(2) is None

    def test_truncate_refuses_committed_prefix(self):
        log = OpLog()
        log.append(1, "a", "put", ())
        log.commit_index = 1
        with pytest.raises(ConfigurationError):
            log.truncate_from(1)

    def test_compaction_retains_tail_and_snapshot_term(self):
        log = OpLog()
        for i in range(5):
            log.append(2, f"r{i}", "put", (i,))
        log.commit_index = 3
        log.compact_to(3)
        assert log.snapshot_index == 3
        assert log.snapshot_term == 2
        assert log.first_index == 4
        assert log.entry(3) is None
        assert log.entry(4) is not None
        assert log.term_at(3) == 2

    def test_entry_wire_round_trip(self):
        entry = LogEntry(7, 2, "rid-1", "put", ("k", [1, 2]))
        assert LogEntry.from_wire(entry.to_wire()) == entry

    def test_last_index_is_a_field_the_mutators_keep(self):
        log = OpLog()
        assert "last_index" in vars(log) and log.last_index == 0
        with pytest.raises(TypeError):  # args that are no sequence
            log.append(1, "a", "put", None)
        assert log.last_index == 0 and log.entry(1) is None
        # A watermark set past the end (nothing in the stack does this):
        # compacting to it still leaves the field what the lists say.
        log.append(1, "a", "put", ())
        log.commit_index = 3
        log.compact_to(3)
        assert log.last_index == log.snapshot_index + len(log._entries) == 3


_small = st.integers(min_value=0, max_value=12)


class OpLogMachine(RuleBasedStateMachine):
    """``OpLog`` against a list-slicing reference, mutator by mutator.

    The reference keeps the retained entries in a plain list beside the
    snapshot boundary and recomputes everything from them; ``last_index``
    is a stored field in the log, and this is what holds it to
    ``snapshot_index + len(retained entries)`` after every step.
    """

    def __init__(self):
        super().__init__()
        self.log = OpLog()
        self.snapshot_index = self.snapshot_term = self.commit_index = 0
        self.retained = []
        self.term = 1
        self.made = 0

    def _last(self):
        return self.snapshot_index + len(self.retained)

    def _entry(self, index):
        offset = index - self.snapshot_index - 1
        return self.retained[offset] if 0 <= offset < len(self.retained) else None

    def _term_at(self, index):
        if index == 0:
            return 0
        if index == self.snapshot_index:
            return self.snapshot_term
        entry = self._entry(index)
        return None if entry is None else entry.term

    def _build(self, index):
        self.made += 1
        return LogEntry(index, self.term, f"r{self.made}", "put", (index,))

    @rule(bump=st.booleans())
    def append(self, bump):
        self.term += bump
        entry = self.log.append(self.term, f"a{self.made}", "put", [1])
        assert entry == LogEntry(self._last() + 1, self.term,
                                 f"a{self.made}", "put", (1,))
        self.made += 1
        self.retained.append(entry)

    @rule(count=st.integers(min_value=0, max_value=3))
    def extend(self, count):
        entries = [self._build(self._last() + 1 + k) for k in range(count)]
        self.log.extend(entries)
        self.retained.extend(entries)

    @rule(good=st.integers(min_value=0, max_value=2), skew=st.sampled_from([-1, 1, 5]))
    def extend_out_of_order(self, good, skew):
        entries = [self._build(self._last() + 1 + k) for k in range(good)]
        stray = self._build(self._last() + 1 + good + skew)
        with pytest.raises(ConfigurationError):
            self.log.extend(entries + [stray])
        self.retained.extend(entries)  # what continued the log stays

    @rule(ahead=_small)
    def commit(self, ahead):
        self.commit_index = min(self._last(), self.commit_index + ahead)
        self.log.commit_index = self.commit_index

    @rule(back=st.integers(min_value=-2, max_value=4))
    def truncate_from(self, back):
        # back == 0: the tail entry; < 0: past the end; > 0: a suffix.
        index = self._last() - back
        if index <= self.commit_index:
            with pytest.raises(ConfigurationError):
                self.log.truncate_from(index)
            return
        offset = max(0, index - self.snapshot_index - 1)
        expected = len(self.retained) - offset
        assert self.log.truncate_from(index) == max(0, expected)
        del self.retained[offset:]

    @rule(below=_small)
    def compact_to(self, below):
        # below == 0: at the commit index itself.
        index = self.commit_index - below
        term = self._term_at(index)
        self.log.compact_to(index)
        if index > self.snapshot_index:
            del self.retained[:index - self.snapshot_index]
            self.snapshot_index, self.snapshot_term = index, term or 0

    @rule()
    def compact_beyond_commit_is_refused(self):
        with pytest.raises(ConfigurationError):
            self.log.compact_to(self.commit_index + 1)

    @rule(index=st.integers(min_value=0, max_value=40), term=_small)
    def reset(self, index, term):
        self.log.reset(index, term)
        self.snapshot_index = self.commit_index = index
        self.snapshot_term = term
        self.retained = []

    @invariant()
    def log_is_what_the_lists_say(self):
        log = self.log
        assert log.last_index == self._last()
        assert log.last_index == log.snapshot_index + len(log._entries)
        assert (log.snapshot_index, log.snapshot_term, log.commit_index) == (
            self.snapshot_index, self.snapshot_term, self.commit_index)
        assert log.first_index == self.snapshot_index + 1
        for index in range(0, self._last() + 3):
            assert log.entry(index) is self._entry(index)
            assert log.term_at(index) == self._term_at(index)
            assert log.entries_from(index) == self.retained[
                max(0, index - self.snapshot_index - 1):]


OpLogMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestOpLogAgainstLists = OpLogMachine.TestCase


class TestShardMap:
    def test_stable_assignment(self):
        shard_map = ShardMap.build(["a", "b"], 4, "kv")
        assert shard_map.num_shards == 4
        assert shard_map.shard_of("user:7") == shard_map.shard_of("user:7")
        assert shard_map.groups[shard_map.shard_of("x")][0].port.startswith("kv.s")

    def test_keys_spread_across_shards(self):
        shard_map = ShardMap.build(["a"], 4, "kv")
        shards = {shard_map.shard_of(f"key-{i}") for i in range(64)}
        assert len(shards) == 4

    def test_empty_map_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardMap(())


class TestQuorumCommit:
    def test_committed_write_applies_on_every_replica(self):
        h = GroupHarness()
        promise = h.client.command("write", "k", "v1")
        h.run_for(1.0)
        assert promise.result() == 1  # first version
        assert h.converged()
        assert all(r.applied_index >= 1 for r in h.replicas.values())
        h.close()

    def test_rid_dedup_applies_exactly_once(self):
        h = GroupHarness()
        first = h.client.command("write", "k", "v", rid="dup-1")
        h.run_for(1.0)
        second = h.client.command("write", "k", "v", rid="dup-1")
        h.run_for(1.0)
        assert first.result() == 1
        assert second.result() == 1  # cached, not re-applied
        primary = h.replicas[h.primaries()[0]]
        assert primary.machine.read("version", ("k",)) == 1
        h.close()

    def test_writes_at_backup_redirect_to_primary(self):
        h = GroupHarness()
        h.client._leader = 0  # point the hint at a backup (r0)
        promise = h.client.command("write", "k", "v")
        h.run_for(1.0)
        assert promise.result() == 1
        assert h.client.redirects >= 1
        h.close()

    def test_write_without_quorum_is_rejected(self):
        h = GroupHarness(max_attempts=3)
        # Isolate the primary (and the client with it): after the detector
        # timeout the primary no longer sees a majority.
        h.fabric.isolate("r2", "cli")
        h.run_for(1.0)  # > hb timeout (0.6s)
        promise = h.client.command("write", "k", "v")
        h.run_for(6.0)
        assert promise.rejected
        assert isinstance(promise.error(), DeliveryError)
        assert h.replicas["r2"].machine.read("version", ("k",)) == 0
        h.close()

    def test_client_whose_every_member_is_dead_gets_a_rejection(self):
        fabric = InMemoryFabric(latency_s=0.005)
        client = GroupClient(
            fabric.endpoint("cli", "c"),
            [Address("ghost1", "g"), Address("ghost2", "g")],
            request_timeout_s=0.2, max_attempts=3,
        )
        write = client.command("write", "k", 1)
        read = client.read("read", "k")
        fabric.run()
        for promise in (write, read):
            assert promise.rejected
            assert isinstance(promise.error(), DeliveryError)
        assert client.failovers >= 2  # it tried both addresses first
        client.close()


class TestMachineRefusal:
    """One command the state machine refuses is the client's error: it
    used to commit, then raise out of the event loop at the primary and
    again at every backup that applied the entry."""

    @pytest.fixture
    def h(self):
        harness = GroupHarness(
            machine_factory=lambda: LedgerMachine({"a": 60, "b": 40}))
        yield harness
        harness.close()

    @pytest.mark.parametrize("command", [
        ("bogus", 1, 2),             # an op the ledger does not know
        ("transfer", "t0", "a"),     # a transfer of the wrong arity
        ("transfer", "t0", "a", "b", "ten"),  # ...and of the wrong type
    ])
    def test_a_refused_command_is_a_noop_entry_on_every_replica(
            self, h, command):
        refused = h.client.command(*command, rid="r-bad")
        h.run_for(1.0)
        assert refused.rejected
        assert isinstance(refused.error(), TransactionAborted)
        assert h.client.rejections == 1 and h.client.failovers == 0
        # The entry committed and applied everywhere, changing nothing.
        assert h.converged()
        for replica in h.replicas.values():
            assert replica.applied_index == 1
            assert replica.machine.balances == {"a": 60, "b": 40}
        # A retry of the refused rid answers from the cache: no new entry.
        again = h.client.command(*command, rid="r-bad")
        h.run_for(1.0)
        assert again.rejected
        assert all(r.log.last_index == 1 for r in h.replicas.values())
        # ...and the group is up: the next good transfer commits.
        moved = h.client.command("transfer", "t1", "a", "b", 10)
        h.run_for(1.0)
        assert moved.result() is True
        assert h.converged()
        assert h.replicas["r0"].machine.balances == {"a": 50, "b": 50}

    @pytest.mark.parametrize("mode", ["primary", "any"])
    def test_a_refused_read_is_rejected_not_raised(self, h, mode):
        refused = h.client.read("bogus", "a", mode=mode)
        known = h.client.read("balance", "a", mode=mode)
        h.run_for(1.0)
        assert isinstance(refused.error(), TransactionAborted)
        assert known.result() == 60


class TestCatchUp:
    def test_lagging_backup_converges_after_heal(self):
        h = GroupHarness()
        h.fabric.isolate("r0")
        promises = [
            h.client.command("write", f"k{i}", i) for i in range(5)
        ]
        h.run_for(2.0)
        assert all(p.fulfilled for p in promises)
        assert h.replicas["r0"].applied_index == 0
        h.fabric.heal()
        h.run_for(2.0)
        assert h.converged()
        assert h.replicas["r0"].applied_index >= 5
        h.close()

    def test_far_behind_backup_gets_state_transfer(self):
        params = ReplicationParams(
            **{**{name: getattr(FAST, name) for name in FAST.__slots__},
               "compact_every": 4}
        )
        h = GroupHarness(params=params)
        h.fabric.isolate("r0")
        for i in range(10):
            h.client.command("write", f"k{i}", i)
        h.run_for(3.0)
        primary = h.replicas["r2"]
        assert primary.log.snapshot_index > 0  # compaction actually ran
        h.fabric.heal()
        h.run_for(3.0)
        assert h.converged()
        assert h.replicas["r0"].log.snapshot_index > 0
        assert sum(r.catchups for r in h.replicas.values()) >= 1
        h.close()

    def test_a_retry_after_a_snapshot_install_is_not_applied_again(self):
        # At-most-once across state transfer: the snapshot carries the
        # rid-result cache, so the backup that installed it and is then
        # elected answers a retry of a command it never applied itself.
        params = ReplicationParams(
            **{**{name: getattr(FAST, name) for name in FAST.__slots__},
               "compact_every": 4}
        )
        h = GroupHarness(params=params)
        r1, r2 = h.replicas["r1"], h.replicas["r2"]
        h.fabric.isolate("r1")
        first = [h.client.command("write", f"k{i}", i, rid=f"w{i}")
                 for i in range(10)]
        h.run_for(3.0)
        assert [p.result() for p in first] == [1] * 10
        assert r2.log.snapshot_index == 8 and r1.applied_index == 0
        h.fabric.heal()
        h.run_for(3.0)
        assert r1.log.snapshot_index == 10
        h.crash("r2")
        h.run_for(3.0)
        assert list(h.primaries()) == ["r1"]
        retry = h.client.command("write", "k3", 3, rid="w3")
        h.run_for(2.0)
        assert retry.result() == 1
        assert r1.machine.read("version", ("k3",)) == 1
        answer = r2._cached("w3")
        assert answer[0] == 1 and r1._cached("w3") == answer
        h.close()


#: The at-most-once property's rid pool: small, so rids repeat, and a
#: tuple-space waiter can carry the rid of another entry.
_RIDS = [f"c{i}" for i in range(5)]
_KEY = st.sampled_from(["x", "y"])
_ACCOUNT = st.sampled_from(["a", "b"])
_VALUE = st.sampled_from([1, [2], (3, [4])])

#: machine -> what is drawn as one command ``(name, args)``: good ones, and
#: ones the machine refuses (unknown op, wrong arity).
_COMMANDS = {
    KVMachine: st.one_of(
        st.tuples(st.just("write"), st.tuples(_KEY, st.integers(0, 3))),
        st.sampled_from([("write", ("x",)), ("erase", ("x",))])),
    lambda: LedgerMachine({"a": 50, "b": 0}): st.one_of(
        st.tuples(st.just("transfer"), st.tuples(
            st.sampled_from(["t0", "t1", "t2"]), _ACCOUNT, _ACCOUNT,
            st.integers(0, 40))),
        st.tuples(st.just("deposit"), st.tuples(
            st.sampled_from(["t0", "t3"]), _ACCOUNT, st.integers(1, 5))),
        st.just(("mint", ("a",)))),
    TupleSpaceMachine: st.one_of(
        st.tuples(st.just("out"), st.tuples(st.tuples(_KEY, _VALUE))),
        st.tuples(st.sampled_from(["in", "rd"]), st.tuples(
            st.tuples(_KEY, st.one_of(st.none(), _VALUE)),
            st.sampled_from(_RIDS))),
        st.tuples(st.just("inp"), st.tuples(st.tuples(_KEY, st.none()))),
        st.just(("eval", ()))),
}


@st.composite
def _cache_runs(draw):
    """A machine, commands under drawn rids with no-op entries among them,
    and the step before which a second replica installs a snapshot."""
    machine = draw(st.sampled_from(list(_COMMANDS)))
    command = st.tuples(st.sampled_from(_RIDS), _COMMANDS[machine])
    steps = draw(st.lists(st.one_of(command, command, command, st.just(None)),
                          min_size=4, max_size=30))
    return machine, steps, draw(st.integers(1, len(steps)))


class TestAtMostOnceCache:
    """The rid-result cache answers every rid as one ``rid -> (result,
    index)`` dict would: the answer of the last entry that settled it."""

    @staticmethod
    def reference_apply(reference, machine, entry):
        """What the cache must say after ``entry`` applies."""
        if entry.name == NOOP:
            reference[entry.rid] = (None, entry.index)
            return
        try:
            outcome = machine.apply(entry.name, entry.args)
        except MALFORMED:
            reference[entry.rid] = (_REJECTED, entry.index)
            return
        if not outcome.pending:
            reference[entry.rid] = (outcome.result, entry.index)
        for rid, result in outcome.wakeups:
            reference[rid] = (result, entry.index)

    @given(_cache_runs())
    @example((TupleSpaceMachine, [
        ("c0", ("rd", (("x", None), "c1"))), ("c1", ("in", (("x", 1), "c1"))),
        ("c4", ("write", ())), None, ("c2", ("out", (("x", 1),))),
        ("c3", ("in", (("x", None), "c3"))), ("c1", ("out", (("x", 1),))),
        ("c3", ("out", (("y", 1),)))], 5))
    def test_the_cache_answers_as_a_dict_of_last_answers(self, run):
        factory, steps, install_at = run
        fabric = InMemoryFabric(latency_s=0.001)
        replicas = deploy_group(fabric.endpoint, ["r0", "r1"], factory,
                                port="g", params=FAST)
        replica, model, reference = replicas["r1"], factory(), {}
        rids = set(_RIDS)
        for step, drawn in enumerate(steps):
            if step == install_at:
                replica = self.install_snapshot(replica, replicas["r0"])
            if drawn is None:
                rid, name, args = f"{NOOP}-{step}", NOOP, ()
            else:
                rid, (name, args) = drawn
            rids.add(rid)
            entry = replica.log.append(replica.term, rid, name, args)
            replica._advance_commit(entry.index)
            self.reference_apply(reference, model, entry)
            assert {rid: replica._cached(rid) for rid in rids} == {
                rid: reference.get(rid) for rid in rids}
        for replica in replicas.values():
            replica.close()

    @staticmethod
    def install_snapshot(primary, backup):
        """``backup`` installs ``primary``'s snapshot, as bytes on a wire."""
        primary.log.compact_to(primary.applied_index)
        sent = []
        primary.send_to_member = lambda member, message: sent.append(message)
        primary._on_need_catchup(Address(backup.node_id, "g"), {"from": 1})
        assert sent[0]["op"] == "snapshot"
        backup._on_message(Address(primary.node_id, "g"),
                           backup.codec.encode(sent[0]))
        assert backup.malformed_frames == 0
        assert backup.applied_index == primary.applied_index
        return backup


class TestReadModes:
    def test_primary_reads_are_current(self):
        h = GroupHarness()
        h.client.command("write", "k", "v1")
        h.run_for(1.0)
        read = h.client.read("read", "k", mode="primary")
        h.run_for(1.0)
        assert read.result() == "v1"
        assert sum(r.reads_primary for r in h.replicas.values()) >= 1
        h.close()

    def test_any_reads_are_served_by_backups(self):
        h = GroupHarness()
        h.client.command("write", "k", "v1")
        h.run_for(1.0)
        reads = [h.client.read("read", "k", mode="any") for _ in range(4)]
        h.run_for(1.0)
        assert all(r.result() == "v1" for r in reads)
        assert sum(r.reads_backup for r in h.replicas.values()) >= 4
        h.close()

    def test_ryw_read_bounces_off_stale_backup_to_primary(self):
        h = GroupHarness()
        h.client.command("write", "k", "v1")
        h.run_for(1.0)
        # Force staleness: pretend we saw a far newer write than any backup
        # has applied. The backup answers ``stale``; the retry goes to the
        # primary, which always serves the current value.
        h.client.seen_index = 100
        read = h.client.read("read", "k", mode="ryw")
        h.run_for(1.0)
        assert read.result() == "v1"
        assert h.client.stale_retries >= 1
        assert sum(r.reads_stale for r in h.replicas.values()) >= 1
        h.close()

    def test_metrics_counters_exist_for_log_traffic(self):
        h = GroupHarness()
        h.client.command("write", "k", "v")
        h.run_for(1.0)
        assert sum(r.appends for r in h.replicas.values()) >= 1
        assert sum(r.commits for r in h.replicas.values()) >= 1
        h.close()
