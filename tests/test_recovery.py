"""Tests for recovery: WAL, checkpoints, transactional store, detectors."""

import pytest

from repro.errors import RecoveryError, TransactionAborted
from repro.recovery.checkpoint import Checkpoint, CheckpointManager
from repro.recovery.heartbeat import HeartbeatDetector
from repro.recovery.store import TransactionalStore
from repro.recovery.wal import (
    BEGIN,
    COMMIT,
    LogRecord,
    StableStorage,
    UPDATE,
    WriteAheadLog,
    committed_transactions,
)
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric


def corrupt_tail(storage):
    """Flip the last byte of the last record, as a torn write leaves it."""
    if storage.blobs:
        last = bytearray(storage.blobs[-1])
        last[-1] ^= 0xFF
        storage.blobs[-1] = bytes(last)


class TestWal:
    def test_append_assigns_increasing_lsns(self):
        log = WriteAheadLog()
        records = [log.append(BEGIN, txid=f"t{i}") for i in range(3)]
        assert [r.lsn for r in records] == [1, 2, 3]

    def test_record_encode_round_trip(self):
        record = LogRecord(5, UPDATE, txid="t1", key="k",
                           before={"old": 1}, after=[1, 2])
        again = LogRecord.decode(record.encode())
        assert again == record

    def test_corrupt_record_detected(self):
        record = LogRecord(1, BEGIN, txid="t")
        blob = bytearray(record.encode())
        blob[-1] ^= 0xFF
        from repro.errors import LogCorruptionError

        with pytest.raises(LogCorruptionError):
            LogRecord.decode(bytes(blob))

    def test_scan_stops_at_torn_tail(self):
        storage = StableStorage()
        log = WriteAheadLog(storage)
        log.append(BEGIN, txid="t1")
        log.append(COMMIT, txid="t1")
        log.append(BEGIN, txid="t2")
        corrupt_tail(storage)
        kinds = [r.kind for r in log.scan()]
        assert kinds == [BEGIN, COMMIT]

    def test_reopened_log_continues_lsns(self):
        storage = StableStorage()
        log = WriteAheadLog(storage)
        log.append(BEGIN, txid="t1")
        reopened = WriteAheadLog(storage)
        assert reopened.append(COMMIT, txid="t1").lsn == 2

    def test_committed_transactions_analysis(self):
        records = [
            LogRecord(1, BEGIN, txid="a"),
            LogRecord(2, BEGIN, txid="b"),
            LogRecord(3, COMMIT, txid="a"),
            LogRecord(4, "ABORT", txid="b"),
        ]
        outcomes = committed_transactions(records)
        assert outcomes == {"a": True, "b": False}


class TestCheckpointManager:
    def test_interval_counting(self):
        manager = CheckpointManager(WriteAheadLog(), interval_ops=3)
        assert not manager.note_operation()
        assert not manager.note_operation()
        assert manager.note_operation()

    def test_take_resets_counter(self):
        manager = CheckpointManager(WriteAheadLog(), interval_ops=2)
        manager.note_operation()
        manager.note_operation()
        manager.take({"k": 1}, [])
        assert not manager.note_operation()

    def test_latest_returns_most_recent(self):
        log = WriteAheadLog()
        manager = CheckpointManager(log, interval_ops=1)
        manager.take({"v": 1}, [])
        manager.take({"v": 2}, [])
        assert manager.latest().state == {"v": 2}

    def test_latest_none_without_checkpoints(self):
        assert CheckpointManager(WriteAheadLog()).latest() is None

    def test_take_encodes_once_and_stores_the_same_bytes(self, monkeypatch):
        # The blob a checkpoint with no pinned redo point stored when it
        # was re-encoded in place once its lsn was known.
        before = bytes.fromhex(
            "af7c259a4d07036c736e4904046b696e64530a434845434b504f494e540474"
            "7869644e036b65794e066265666f72654e0561667465724e077061796c6f61"
            "644d030573746174654d020161490201624c0249044906046c6976654c0153"
            "027431097265646f5f66726f6d4906")
        encodes = []
        encode = LogRecord.encode
        monkeypatch.setattr(LogRecord, "encode",
                            lambda record: encodes.append(record) or encode(record))
        log = WriteAheadLog()
        log.append(BEGIN, txid="t1")
        record = CheckpointManager(log).take({"a": 1, "b": [2, 3]}, ["t1"])
        assert len(encodes) == 2  # the BEGIN and the checkpoint, once each
        assert log.storage.blobs[-1] == before
        assert Checkpoint.from_record(record).redo_from_lsn == record.lsn + 1 == 3


class TestTransactionalStore:
    def test_committed_data_survives_crash(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        txid = store.begin()
        store.put(txid, "a", 1)
        store.commit(txid)
        store.crash()
        recovered = TransactionalStore(storage)
        assert recovered.get("a") == 1

    def test_uncommitted_data_discarded_on_crash(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        txid = store.begin()
        store.put(txid, "a", 1)
        store.crash()
        recovered = TransactionalStore(storage)
        assert recovered.get("a") is None

    def test_aborted_transaction_invisible(self):
        store = TransactionalStore()
        txid = store.begin()
        store.put(txid, "a", 1)
        store.abort(txid)
        assert store.get("a") is None
        with pytest.raises(TransactionAborted):
            store.put(txid, "b", 2)

    def test_isolation_until_commit(self):
        store = TransactionalStore()
        txid = store.begin()
        store.put(txid, "a", 1)
        assert store.get("a") is None       # other readers
        assert store.get("a", txid) == 1    # read-your-writes
        store.commit(txid)
        assert store.get("a") == 1

    def test_delete_round_trip(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        t1 = store.begin()
        store.put(t1, "a", 1)
        store.commit(t1)
        t2 = store.begin()
        store.put(t2, "a", None)  # a deletion
        store.commit(t2)
        store.crash()
        recovered = TransactionalStore(storage)
        assert recovered.get("a") is None

    def test_live_transaction_spanning_checkpoint_recovers(self):
        storage = StableStorage()
        store = TransactionalStore(storage, checkpoint_interval_ops=3)
        long_tx = store.begin()
        store.put(long_tx, "spanning", "value")
        # Other traffic forces checkpoints while long_tx is live.
        for i in range(10):
            t = store.begin()
            store.put(t, f"x{i}", i)
            store.commit(t)
        store.commit(long_tx)
        store.crash()
        recovered = TransactionalStore(storage, checkpoint_interval_ops=3)
        assert recovered.get("spanning") == "value"
        assert recovered.get("x9") == 9

    def test_checkpoint_bounds_recovery_scan(self):
        no_checkpoint = StableStorage()
        frequent = StableStorage()
        for storage, interval in ((no_checkpoint, 10**9), (frequent, 10)):
            store = TransactionalStore(storage, checkpoint_interval_ops=interval)
            for i in range(100):
                t = store.begin()
                store.put(t, f"k{i}", i)
                store.commit(t)
            store.crash()
        slow = TransactionalStore(no_checkpoint, checkpoint_interval_ops=10**9)
        fast = TransactionalStore(frequent, checkpoint_interval_ops=10)
        assert fast.last_recovery_records_scanned < slow.last_recovery_records_scanned
        assert fast.snapshot() == slow.snapshot()

    def test_operations_rejected_while_crashed(self):
        store = TransactionalStore()
        store.crash()
        with pytest.raises(RecoveryError):
            store.begin()
        store.recover()
        store.begin()

    def test_corrupted_tail_preserves_earlier_commits(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        t1 = store.begin()
        store.put(t1, "safe", 1)
        store.commit(t1)
        t2 = store.begin()
        store.put(t2, "risky", 2)
        store.commit(t2)
        corrupt_tail(storage)  # tears the final COMMIT
        recovered = TransactionalStore(storage)
        assert recovered.get("safe") == 1
        assert recovered.get("risky") is None  # commit record lost

    def test_double_crash_recover_cycles(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        for round_number in range(3):
            t = store.begin()
            store.put(t, f"r{round_number}", round_number)
            store.commit(t)
            store.crash()
            store.recover()
        assert store.snapshot() == {"r0": 0, "r1": 1, "r2": 2}


class TestHeartbeat:
    def test_suspects_silent_peer(self):
        fabric = InMemoryFabric(latency_s=0.01)
        speaker = HeartbeatDetector(fabric.endpoint("a", "hb"), interval_s=0.5)
        watcher = HeartbeatDetector(fabric.endpoint("b", "hb"), interval_s=0.5)
        speaker.send_to(Address("b", "hb"))
        watcher.watch("a")
        fabric.sim.run_until(5.0)
        assert not watcher.suspected("a")
        speaker.stop()
        fabric.sim.run_until(12.0)
        assert watcher.suspected("a")

    def test_alive_event_on_recovery(self):
        fabric = InMemoryFabric(latency_s=0.01)
        watcher = HeartbeatDetector(fabric.endpoint("w", "hb"), interval_s=0.5)
        watcher.watch("peer")
        transitions = []
        watcher.events.on("suspect", lambda n: transitions.append("suspect"))
        watcher.events.on("alive", lambda n: transitions.append("alive"))
        fabric.sim.run_until(5.0)  # silence -> suspect
        # Peer comes to life.
        peer = HeartbeatDetector(fabric.endpoint("peer", "hb"), interval_s=0.5)
        peer.send_to(Address("w", "hb"))
        fabric.sim.run_until(10.0)
        assert transitions == ["suspect", "alive"]

    def test_stale_heartbeats_ignored(self):
        fabric = InMemoryFabric()
        watcher = HeartbeatDetector(fabric.endpoint("w", "hb"), interval_s=1.0)
        watcher.watch("x")
        frame_new = watcher.codec.encode({"op": "hb", "from": "x", "seq": 5})
        frame_old = watcher.codec.encode({"op": "hb", "from": "x", "seq": 3})
        watcher._on_message(Address("x", "hb"), frame_new)
        heard = watcher._watched["x"].last_seq
        watcher._on_message(Address("x", "hb"), frame_old)
        assert watcher._watched["x"].last_seq == heard

    def test_alive_peers_listing(self):
        fabric = InMemoryFabric()
        watcher = HeartbeatDetector(fabric.endpoint("w", "hb"), interval_s=1.0)
        watcher.watch("a")
        watcher.watch("b")
        assert [watcher.suspected(peer) for peer in "ab"] == [False, False]

    def test_subscription_seam_fires_exactly_once_per_transition(self):
        """A flapping peer produces alternating suspect/alive callbacks —
        never a storm of duplicate suspects while it stays down."""
        fabric = InMemoryFabric(latency_s=0.01)
        watcher = HeartbeatDetector(fabric.endpoint("w", "hb"), interval_s=0.5)
        watcher.watch("peer")
        suspects, recoveries = [], []
        suspect_sub = watcher.on_suspect(suspects.append)
        watcher.events.on("alive", recoveries.append)

        def beat(seq):
            watcher._on_message(
                Address("peer", "hb"),
                watcher.codec.encode({"op": "hb", "from": "peer", "seq": seq}),
            )

        # Flap three times: silence past the timeout, then one heartbeat.
        seq = 0
        for _ in range(3):
            fabric.sim.run_until(fabric.sim.now() + 10.0)  # many check ticks
            seq += 1
            beat(seq)
        fabric.sim.run_until(fabric.sim.now() + 10.0)
        assert suspects == ["peer"] * 4  # one per down-transition, no storms
        assert recoveries == ["peer"] * 3
        # A cancelled subscription detaches cleanly.
        suspect_sub.cancel()
        seq += 1
        beat(seq)
        fabric.sim.run_until(fabric.sim.now() + 10.0)
        assert len(suspects) == 4
        assert len(recoveries) == 4
        watcher.stop()


class TestWalTailRepair:
    def test_appends_after_corruption_survive_reopen(self):
        storage = StableStorage()
        log = WriteAheadLog(storage)
        log.append(BEGIN, txid="t1")
        log.append(COMMIT, txid="t1")
        corrupt_tail(storage)  # tear the COMMIT
        # Reopen: the torn blob is dropped, new appends are reachable.
        reopened = WriteAheadLog(storage)
        assert reopened.truncated_on_open == 1
        reopened.append(BEGIN, txid="t2")
        reopened.append(COMMIT, txid="t2")
        final = WriteAheadLog(storage)
        kinds = [(r.kind, r.txid) for r in final.scan()]
        assert kinds == [(BEGIN, "t1"), (BEGIN, "t2"), (COMMIT, "t2")]

    def test_store_writes_after_corrupt_recovery_are_durable(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        txid = store.begin()
        store.put(txid, "early", 1)
        store.commit(txid)
        corrupt_tail(storage)
        store.crash()
        recovered = TransactionalStore(storage)
        txid = recovered.begin()
        recovered.put(txid, "late", 2)
        recovered.commit(txid)
        recovered.crash()
        final = TransactionalStore(storage)
        # 'early' lost its torn COMMIT; 'late' must not be lost too.
        assert final.get("late") == 2

    def test_no_truncation_on_clean_log(self):
        storage = StableStorage()
        log = WriteAheadLog(storage)
        log.append(BEGIN, txid="t")
        assert WriteAheadLog(storage).truncated_on_open == 0


class TestTornWritesAndReplayIdempotence:
    """Crash exactly at a torn write, and replay the log repeatedly."""

    def committed_store(self):
        storage = StableStorage()
        store = TransactionalStore(storage)
        t1 = store.begin()
        store.put(t1, "a", 1)
        store.put(t1, "b", 2)
        store.commit(t1)
        return storage, store

    def test_torn_commit_record_aborts_the_transaction(self):
        storage, store = self.committed_store()
        t2 = store.begin()
        store.put(t2, "a", 99)
        store.commit(t2)
        # The crash tears the very blob carrying t2's COMMIT: recovery must
        # treat t2 as unfinished, not apply half of it.
        corrupt_tail(storage)
        store.crash()
        recovered = TransactionalStore(storage)
        assert recovered.get("a") == 1
        assert recovered.get("b") == 2
        assert recovered.log.truncated_on_open == 1

    def test_torn_tail_repaired_once_then_appendable(self):
        storage, store = self.committed_store()
        corrupt_tail(storage)  # tears the COMMIT of t1
        store.crash()
        recovered = TransactionalStore(storage)
        assert recovered.get("a") is None
        # The torn blob was dropped at open, so new appends are visible to
        # future scans instead of hiding behind a corrupt entry forever.
        t2 = recovered.begin()
        recovered.put(t2, "c", 3)
        recovered.commit(t2)
        final = TransactionalStore(storage)
        assert final.log.truncated_on_open == 0
        assert final.get("c") == 3

    def test_torn_checkpoint_falls_back_to_log_replay(self):
        storage = StableStorage()
        store = TransactionalStore(storage, checkpoint_interval_ops=2)
        for i in range(4):
            txid = store.begin()
            store.put(txid, f"k{i}", i)
            store.commit(txid)
        assert store.checkpoints.checkpoints_taken >= 1
        # Tear whatever the tail is; even if it is the newest checkpoint,
        # recovery still reconstructs every committed write from the log.
        corrupt_tail(storage)
        store.crash()
        recovered = TransactionalStore(storage)
        for i in range(3):
            assert recovered.get(f"k{i}") == i

    def test_recovery_replay_is_idempotent(self):
        storage, store = self.committed_store()
        store.crash()
        recovered = TransactionalStore(storage)
        first = recovered.snapshot()
        # Recover repeatedly over the same log: bit-identical state and no
        # storage growth (replay must not re-log what it replays).
        blobs_before = len(storage)
        for _ in range(3):
            recovered.crash()
            recovered.recover()
            assert recovered.snapshot() == first
        assert len(storage) == blobs_before

    def test_checkpoint_spanning_replay_is_idempotent(self):
        # Updates both snapshotted by the checkpoint and replayed from the
        # log (the redo_from overlap) must not double-apply.
        storage = StableStorage()
        store = TransactionalStore(storage, checkpoint_interval_ops=3)
        spanning = store.begin()
        store.put(spanning, "n", 1)
        for i in range(4):  # push a checkpoint out while `spanning` is live
            txid = store.begin()
            store.put(txid, f"k{i}", i)
            store.commit(txid)
        store.commit(spanning)
        store.crash()
        recovered = TransactionalStore(storage)
        snapshot = recovered.snapshot()
        assert snapshot["n"] == 1
        recovered.crash()
        recovered.recover()
        assert recovered.snapshot() == snapshot
