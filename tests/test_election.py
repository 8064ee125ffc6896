"""Election edge cases: Bully failover, fencing, partitions, determinism."""

import json

from repro.replication.client import GroupClient
from repro.transport.base import Address

from tests.replication_helpers import GroupHarness


def _stabilize(h, duration=0.5):
    h.run_for(duration)


class TestFailover:
    def test_next_highest_member_takes_over(self):
        h = GroupHarness()
        _stabilize(h)
        assert h.primaries() == ["r2"]
        h.crash("r2")
        h.run_for(3.0)
        assert h.primaries() == ["r1"]
        assert h.replicas["r1"].term > 1
        promise = h.client.command("write", "k", "after")
        h.run_for(2.0)
        assert promise.result() == 1
        h.close()

    def test_committed_writes_survive_failover(self):
        h = GroupHarness()
        promises = [h.client.command("write", f"k{i}", i) for i in range(5)]
        h.run_for(2.0)
        assert all(p.fulfilled for p in promises)
        h.crash("r2")
        h.run_for(3.0)
        reads = [h.client.read("read", f"k{i}") for i in range(5)]
        h.run_for(2.0)
        assert [r.result() for r in reads] == list(range(5))
        assert h.converged(["r0", "r1"])
        h.close()

    def test_retry_across_failover_does_not_double_apply(self):
        h = GroupHarness()
        first = h.client.command("write", "k", "v", rid="once")
        h.run_for(1.0)
        assert first.fulfilled
        h.crash("r2")
        h.run_for(3.0)
        # The client retries the same rid against the new primary: the
        # replicated result cache answers; the op is not applied again.
        again = h.client.command("write", "k", "v", rid="once")
        h.run_for(2.0)
        assert again.result() == first.result()
        primary = h.replicas[h.primaries()[0]]
        assert primary.machine.read("version", ("k",)) == 1
        h.close()


class TestEdgeCases:
    def test_simultaneous_candidacies_converge_on_one_primary(self):
        h = GroupHarness(n=4)
        _stabilize(h)
        # All three survivors suspect the primary on the same virtual tick
        # (identical detector timers), so three rounds start concurrently.
        h.crash("r3")
        h.run_for(4.0)
        assert h.primaries() == ["r2"]
        for node in ("r0", "r1"):
            assert h.replicas[node].leader == "r2"
        assert sum(r.election.rounds for r in h.replicas.values()) >= 2
        h.close()

    def test_coordinator_crash_mid_election(self):
        h = GroupHarness(n=5)
        h.run_until(1.0)
        h.crash("r4")  # primary dies; suspicion lands around t=1.8
        h.run_until(1.9)
        # r3 (the would-be winner) dies after answering elect_ok but
        # before announcing itself: the waiting members' coordinator
        # timeout must restart the vote.
        h.crash("r3")
        h.run_until(6.0)
        assert h.primaries() == ["r2"]
        assert h.replicas["r2"].election.rounds >= 2
        survivors = ["r0", "r1", "r2"]
        assert all(h.replicas[n].leader == "r2" for n in survivors)
        h.close()

    def test_deposed_primary_is_fenced_and_its_stale_write_discarded(self):
        h = GroupHarness()
        stale_client = GroupClient(
            h.fabric.endpoint("cli2", "c2"),
            [Address(n, h.port) for n in h.node_ids],
            request_timeout_s=0.4, max_attempts=2,
        )
        h.fabric.isolate("r2", "cli2")
        # Inside the pre-suspicion window the old primary still believes in
        # its quorum: the stale write is appended but can never commit.
        stale = stale_client.command("write", "stale-key", "stale")
        h.run_for(0.1)
        assert h.replicas["r2"].log.last_index == 1
        h.run_for(2.9)  # majority elects r1; stale write times out
        # The isolated old primary keeps its role (it merely refuses
        # service on quorum loss) until the fence heals it away.
        assert h.replicas["r1"].role == "primary"
        good = h.client.command("write", "good-key", "good")
        h.run_for(1.0)
        assert good.fulfilled
        assert stale.rejected
        h.fabric.heal()
        h.run_for(4.0)
        # The old primary was fenced on its first stale append, adopted the
        # newer term, and had its junk suffix repaired away.
        assert h.replicas["r2"].term >= 2
        assert h.converged()
        for replica in h.replicas.values():
            assert replica.machine.read("read", ("stale-key",)) is None
            assert replica.machine.read("read", ("good-key",)) == "good"
        stale_client.close()
        h.close()

    def test_raw_stale_term_append_answered_with_fenced(self):
        h = GroupHarness()
        _stabilize(h)
        h.crash("r2")
        h.run_for(3.0)  # r1 takes over at a higher term
        assert h.primaries() == ["r1"]
        # Replay a frame from the deposed regime: a member-sourced append
        # stamped with the old term must be rejected, not obeyed. Rebind
        # the dead member's data port so we can watch the answer.
        h.fabric.remove(Address("r2", h.port))
        ghost = h.fabric.endpoint("r2", h.port)
        answers = []
        ghost.set_receiver(lambda src, payload: answers.append(
            h.client.codec.decode(bytes(payload))
        ))
        ghost.send(
            Address("r1", h.port),
            h.client.codec.encode({
                "op": "append", "term": 1, "commit": 5, "prev": 0,
                "prev_term": 0,
                "entries": [{"i": 1, "t": 1, "r": "evil", "n": "write",
                             "a": ["k", "evil"]}],
            }),
        )
        h.run_for(0.5)
        # First answer is the fence (later frames are r1's beacons, since
        # rebinding the port put "r2" back on the network).
        assert answers and answers[0]["op"] == "fenced"
        assert answers[0]["term"] == h.replicas["r1"].term
        assert h.replicas["r1"].machine.read("read", ("k",)) is None
        h.close()

    def test_partitioned_minority_has_no_primary_and_refuses_writes(self):
        h = GroupHarness(n=5)
        minority_client = GroupClient(
            h.fabric.endpoint("cli2", "c2"),
            [Address(n, h.port) for n in h.node_ids],
            request_timeout_s=0.4, max_attempts=6,
        )
        _stabilize(h)
        h.fabric.isolate("r0", "r1", "cli2")
        h.run_for(2.0)  # suspicion + failed candidacies in the minority
        denied = minority_client.command("write", "k", "minority")
        accepted = h.client.command("write", "k", "majority")
        h.run_for(6.0)
        # The minority candidate cannot assemble a sync majority, so it
        # never takes office; the majority side keeps committing.
        assert all(
            h.replicas[n].role != "primary" for n in ("r0", "r1")
        )
        assert denied.rejected
        assert accepted.result() == 1
        h.fabric.heal()
        h.run_for(3.0)
        assert h.converged()
        assert all(
            r.machine.read("read", ("k",)) == "majority"
            for r in h.replicas.values()
        )
        minority_client.close()
        h.close()


class TestDeterminism:
    @staticmethod
    def _failover_trace() -> bytes:
        h = GroupHarness()
        events = []
        promises = [h.client.command("write", f"k{i}", i) for i in range(4)]
        h.run_for(1.5)
        h.crash("r2")
        h.run_for(4.0)
        late = h.client.command("write", "late", "x")
        h.run_for(2.0)
        for node in h.node_ids:
            replica = h.replicas[node]
            events.append({
                "node": node,
                "role": replica.role if not replica.closed else "closed",
                "term": replica.term,
                "applied": replica.applied_index,
                "state": replica.machine.snapshot(),
            })
        summary = {
            "events": events,
            "acks": [p.fulfilled for p in promises + [late]],
            "client": h.client.stats(),
            "rounds": sum(r.election.rounds for r in h.replicas.values()),
        }
        h.close()
        return json.dumps(summary, sort_keys=True).encode()

    def test_failover_reruns_are_byte_identical(self):
        assert self._failover_trace() == self._failover_trace()
