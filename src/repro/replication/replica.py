"""Primary–backup replica nodes with quorum commit and term fencing.

Each :class:`ReplicaNode` hosts one deterministic :class:`StateMachine`
behind the replicated :class:`~repro.replication.log.OpLog`. One member is
the *primary* for the current *term*: it appends client commands to its
log, replicates them to the backups, advances the commit index once an ack
quorum (majority of the group, counting itself) has the entry, applies in
index order, and answers the client. Backups append what the primary sends,
apply up to the piggybacked commit index, and serve reads for clients that
opted into relaxed consistency.

Safety rests on three invariants:

- **Term fencing** — every replication message carries the sender's term.
  A receiver with a higher term answers ``fenced`` instead of obeying; a
  primary that sees ``fenced`` steps down and fails its in-flight commands
  with ``deposed``. A deposed primary's stale appends therefore cannot
  overwrite state owned by a newer term.
- **Quorum intersection** — an entry commits only when a majority has it,
  and a candidate only wins election after syncing logs from a majority
  (:mod:`repro.replication.election`), so every committed entry survives
  into the next term.
- **Commit-prefix immutability** — conflict truncation and repair never
  cross the commit watermark (:class:`~repro.replication.log.OpLog`
  enforces this structurally).

Reads at the primary are linearizable, gated on the primary still seeing an
unsuspected majority: with equal heartbeat parameters group-wide, a deposed
primary loses that view strictly before any new primary can have committed
a conflicting write (detection on the majority side happens no later, and
election adds strictly positive time on top).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.interop.codec import wire_plain
from repro.interop.frames import WireFrame
from repro.obs.tracing import TRACER
from repro.recovery.heartbeat import HeartbeatDetector
from repro.replication.election import BullyElection
from repro.replication.log import LogEntry, OpLog
from repro.transport.base import Address, Transport, drop_malformed
from repro.transport.endpoint import (
    MALFORMED, MessageEndpoint, list_of, optional, present)


class Outcome:
    """Result of applying one op to a :class:`StateMachine`.

    ``pending`` marks a blocking op (tuple-space ``in``/``rd`` with no
    match) whose result arrives later via another op's ``wakeups`` — a
    tuple of ``(rid, result)`` pairs resolved by this application.
    """

    __slots__ = ("result", "wakeups", "pending")

    def __init__(self, result: Any = None,
                 wakeups: Tuple[Tuple[str, Any], ...] = (),
                 pending: bool = False) -> None:
        self.result = result
        self.wakeups = wakeups
        self.pending = pending


class StateMachine:
    """A deterministic state machine replicated by :class:`ReplicaNode`.

    ``apply`` must be a pure function of (current state, name, args): every
    replica applies the same log prefix and must land in the same state.
    Reads never mutate. Snapshots must round-trip through ``restore`` and
    capture *all* state, including registered blocking waiters.
    """

    def apply(self, name: str, args: Tuple[Any, ...]) -> Outcome:
        raise NotImplementedError

    def read(self, name: str, args: Tuple[Any, ...]) -> Any:
        raise NotImplementedError

    def snapshot(self) -> Any:
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        raise NotImplementedError

    def pending_rids(self) -> Iterable[str]:
        """Rids of blocking ops applied but not yet woken (for failover)."""
        return ()


NOOP = "__noop"

#: Cached in place of a result when the machine refused the command (raised
#: one of :data:`~repro.transport.endpoint.MALFORMED`). Every replica runs
#: the same machine on the same state, so all refuse alike: the entry is a
#: no-op on every member, and the rid answers ``rejected`` from then on.
_REJECTED = object()


class ReplicationParams:
    """Tunables for one replica group. Defaults suit the simulator's
    low-latency fabrics; chaos campaigns override with coarser timers."""

    __slots__ = ("hb_interval_s", "hb_timeout_multiplier", "elect_timeout_s",
                 "sync_timeout_s", "coord_timeout_s", "beacon_interval_s",
                 "write_timeout_s", "compact_every", "service_delay_s")

    def __init__(self, hb_interval_s: float = 0.5,
                 hb_timeout_multiplier: float = 3.0,
                 elect_timeout_s: float = 0.6, sync_timeout_s: float = 0.6,
                 coord_timeout_s: float = 1.2, beacon_interval_s: float = 0.5,
                 write_timeout_s: float = 4.0, compact_every: int = 0,
                 service_delay_s: float = 0.0) -> None:
        self.hb_interval_s = hb_interval_s
        self.hb_timeout_multiplier = hb_timeout_multiplier
        self.elect_timeout_s = elect_timeout_s
        self.sync_timeout_s = sync_timeout_s
        self.coord_timeout_s = coord_timeout_s
        self.beacon_interval_s = beacon_interval_s
        self.write_timeout_s = write_timeout_s
        # retained entries before compaction; 0 = never
        self.compact_every = compact_every
        # per-request service time (read scaling)
        self.service_delay_s = service_delay_s


class _PendingCmd:
    __slots__ = ("source", "rid", "timer")

    def __init__(self, source: Address, rid: str) -> None:
        self.source = source
        self.rid = rid
        self.timer: Any = None


_ENTRIES = list_of(LogEntry.from_wire)


def _cache_row(raw: Any) -> Tuple[str, Tuple[Any, int]]:
    """One row of a ``snapshot``'s cache, ``[rid, index, result]`` or
    ``[rid, index]`` where the machine refused the command, as
    ``(rid, (result, index))``; the result is the receiver's own copy."""
    if not isinstance(raw, list) or len(raw) not in (2, 3):
        raise TypeError(f"malformed cache row: {raw!r}")
    rid, index = raw[0], raw[1]
    if not (isinstance(rid, str) and isinstance(index, int)):
        raise TypeError(f"malformed cache row: {raw!r}")
    return rid, (wire_plain(raw[2]) if len(raw) == 3 else _REJECTED, index)


class ReplicaNode(MessageEndpoint):
    """One member of a replica group."""

    # ``cmd`` is client traffic; every other op is group-internal, gated on
    # its sender being a member. A closed replica hears nothing: close()
    # takes its receiver off the transport.
    OPS = {
        "cmd": ({"rid": str, "name": str, "args": optional((list, tuple)),
                 "read": optional(bool), "mode": optional(str),
                 "min_index": optional(int)}, "_enqueue_cmd"),
        "append": ({"term": int, "commit": int, "prev": int, "prev_term": int,
                    "entries": _ENTRIES, "repair": optional(bool),
                    "from": optional(int)}, "_on_append", "_from_member"),
        "append_ack": ({"term": int, "index": int}, "_on_append_ack",
                       "_from_member"),
        "need_catchup": ({"from": int}, "_on_need_catchup", "_from_member"),
        "fenced": ({"term": int}, "_on_fenced", "_from_member"),
        "snapshot": ({"term": int, "index": int, "sterm": int,
                      "state": present, "commit": int,
                      "results": list_of(_cache_row)}, "_on_snapshot",
                     "_from_member"),
        "elect": ({"term": int}, "_on_elect", "_from_member"),
        "elect_ok": ({"term": int}, "_on_elect_ok", "_from_member"),
        "coord": ({"term": int, "leader": str}, "_on_coord", "_from_member"),
        "sync_req": ({"term": int, "from_index": int}, "_on_sync_req",
                     "_from_member"),
        "sync": ({"term": int, "commit": int, "entries": _ENTRIES}, "_on_sync",
                 "_from_member"),
    }

    def __init__(
        self,
        transport: Transport,
        hb_transport: Transport,
        members: Sequence[str],
        machine: StateMachine,
        params: Optional[ReplicationParams] = None,
        initial_leader: Optional[str] = None,
        group: str = "g0",
    ):
        super().__init__(transport)
        self.hb_transport = hb_transport
        self.params = params if params is not None else ReplicationParams()
        self.group = group
        self.node_id = transport.local_address.node
        self.port = transport.local_address.port
        self.members = sorted(members)
        if self.node_id not in self.members:
            raise ConfigurationError(
                f"{self.node_id} is not in members {self.members}"
            )
        self.peers = [m for m in self.members if m != self.node_id]
        self._addresses = {m: Address(m, self.port) for m in self.members}
        self.majority = len(self.members) // 2 + 1
        self.machine = machine
        self.scheduler = transport.scheduler

        self.term = 1
        self.leader: Optional[str] = (
            initial_leader if initial_leader is not None else self.members[-1]
        )
        self.role = "primary" if self.leader == self.node_id else "backup"
        self.log = OpLog()
        self.applied_index = 0
        self.closed = False

        # The at-most-once cache, kept on *every* replica so a freshly
        # elected primary can answer a client's retry of an op the old
        # primary committed. ``_results`` maps a rid to the index of the
        # entry that answered it (the entry's own ``index`` int, which the
        # log shares); ``_outcomes`` holds one result per applied entry and
        # ends at ``applied_index``. ``_settled`` maps a rid to its
        # ``(result, index)`` where one slot per index cannot hold it: the
        # rids a tuple-space ``out`` wakes at its index, and every answer a
        # snapshot installed. A rid in both answers with the higher index;
        # a wakeup wins a tie, as it settles after its entry's own result.
        self._results: Dict[str, int] = {}
        self._outcomes: List[Any] = []
        self._settled: Dict[str, Tuple[Any, int]] = {}
        # rid -> index for logged-but-not-yet-applied entries.
        self._logged_rids: Dict[str, int] = {}
        # Applied blocking ops still waiting for a wakeup.
        self._parked: set = set()
        # rid -> client address for blocking ops to answer on wakeup.
        self._blocked: Dict[str, Address] = {}
        # index -> in-flight client command (primary only).
        self._pending: Dict[int, _PendingCmd] = {}
        # peer -> highest log index known replicated there (primary only).
        self._match: Dict[str, int] = {p: 0 for p in self.peers}

        self._busy_until = 0.0
        self._beacon_timer: Any = None

        self.appends = 0
        self.commits = 0
        self.catchups = 0
        self.reads_primary = 0
        self.reads_backup = 0
        self.reads_stale = 0

        self.detector = HeartbeatDetector(
            hb_transport,
            interval_s=self.params.hb_interval_s,
            timeout_multiplier=self.params.hb_timeout_multiplier,
        )
        hb_port = hb_transport.local_address.port
        for peer in self.peers:
            self.detector.send_to(Address(peer, hb_port))
            self.detector.watch(peer)
        self.detector.on_suspect(self._peer_suspected)

        self.election = BullyElection(self)
        if self.role == "primary":
            self._start_beacon()

    # ------------------------------------------------------------- plumbing

    def _send(self, destination: Address, message: Dict[str, Any]) -> None:
        if not self.transport._closed:  # replies only; group traffic below
            self.transport.send(destination, WireFrame(message, self.codec))

    def send_to_member(self, member: str, message: Dict[str, Any]) -> None:
        # Message dicts ride in lazy frames (encoded only if a lower layer
        # needs real bytes); fan-out paths pass a prebuilt WireFrame so the
        # whole group shares one potential encode. Member addresses are
        # built once; a ``coord`` can name a leader outside the group.
        if not self.transport._closed:
            if not isinstance(message, WireFrame):
                message = WireFrame(message, self.codec)
            self.transport.send(self._addresses.get(member)
                                or Address(member, self.port), message)

    def _quorum_alive(self) -> bool:
        """Does this node still see an unsuspected majority (incl. itself)?"""
        alive = 1 + sum(
            1 for p in self.peers if not self.detector.suspected(p)
        )
        return alive >= self.majority

    def _peer_suspected(self, node_id: str) -> None:
        if self.closed:
            return
        if node_id == self.leader and self.role != "primary":
            self.election.start()

    # ------------------------------------------------------------- messages

    def _from_member(self, source: Address, message: Dict[str, Any]) -> bool:
        return source.node in self.members

    def _on_elect(self, source: Address, message: Dict[str, Any]) -> None:
        self.election.on_elect(source.node, message["term"])

    def _on_elect_ok(self, source: Address, message: Dict[str, Any]) -> None:
        self.election.on_elect_ok(message["term"])

    def _on_sync(self, source: Address, message: Dict[str, Any],
                 entries: List[LogEntry]) -> None:
        self.election.on_sync(
            source.node, message["term"], message["commit"], entries)

    # -------------------------------------------------------- client traffic

    def _enqueue_cmd(self, source: Address, message: Dict[str, Any]) -> None:
        """Admit a client command through the service-time queue.

        ``service_delay_s`` models per-request service time at this member:
        requests occupy the member FIFO-style, which is what makes read
        throughput scale with the number of backups serving relaxed reads
        (see benchmarks/bench_replication.py).
        """
        delay = self.params.service_delay_s
        if delay <= 0:
            self._on_cmd(source, message)
            return
        now = self.scheduler.now()
        start = max(now, self._busy_until)
        self._busy_until = start + delay
        self.scheduler.schedule(
            self._busy_until - now, self._on_cmd, source, message
        )

    def _on_cmd(self, source: Address, message: Dict[str, Any]) -> None:
        if self.closed:
            return
        rid, name = message["rid"], message["name"]
        args = tuple(message.get("args", ()))
        if message.get("read"):
            self._on_read(source, rid, name, args, message)
            return
        # At-most-once: an already-applied rid answers from the cache.
        if rid in self._results or rid in self._settled:
            self._answer(source, rid, *self._cached(rid))
            return
        if self.role != "primary":
            self._reply(source, "redirect", rid, leader=self.leader,
                        term=self.term)
            return
        if rid in self._parked:
            # Blocking op already applied, still waiting for its wakeup:
            # remember where to send the eventual answer.
            self._blocked[rid] = source
            return
        logged = self._logged_rids.get(rid)
        if logged is not None:
            # Retry of an in-flight write: re-attach the client, no re-append.
            pend = self._pending.get(logged)
            if pend is not None:
                pend.source = source
            else:
                self._arm_pending(logged, source, rid)
            return
        if not self._quorum_alive():
            self._reply(source, "cmd_err", rid, error="no_quorum")
            return
        entry = self.log.append(self.term, rid, name, args)
        self._logged_rids[rid] = entry.index
        self.appends += 1
        self._arm_pending(entry.index, source, rid)
        self._replicate([entry])
        self._maybe_commit()

    def _on_read(
        self,
        source: Address,
        rid: str,
        name: str,
        args: Tuple[Any, ...],
        message: Dict[str, Any],
    ) -> None:
        mode = message.get("mode", "primary")
        if self.role == "primary":
            if not self._quorum_alive():
                # Possibly deposed (partitioned minority): a newer primary
                # may exist, so a "linearizable" answer here could be stale.
                self._reply(source, "cmd_err", rid, error="no_quorum")
                return
            self.reads_primary += 1
            self._answer_read(source, rid, name, args)
            return
        if mode == "primary":
            self._reply(source, "redirect", rid, leader=self.leader,
                        term=self.term)
            return
        if self.applied_index < message.get("min_index", 0):
            self.reads_stale += 1
            self._reply(source, "stale", rid, applied=self.applied_index,
                        leader=self.leader)
            return
        self.reads_backup += 1
        self._answer_read(source, rid, name, args)

    def _answer_read(
        self, source: Address, rid: str, name: str, args: Tuple[Any, ...]
    ) -> None:
        try:
            result = self.machine.read(name, args)
        except MALFORMED:
            result = _REJECTED
        self._answer(source, rid, result, self.applied_index)

    def _cached(self, rid: str) -> Optional[Tuple[Any, int]]:
        """``(result, index)`` of the applied command ``rid``, or None."""
        index = self._results.get(rid)
        settled = self._settled.get(rid)
        if index is None or settled is not None and settled[1] >= index:
            return settled
        return self._outcomes[index - self.applied_index - 1], index

    def _answer(self, source: Address, rid: str, result: Any,
                index: int) -> None:
        """A settled command's result — or the machine's refusal, which the
        client must not retry: one command the application rejects is the
        client's error, not a reason to take the group down."""
        if result is _REJECTED:
            self._reply(source, "cmd_err", rid, error="rejected")
        else:
            self._reply(source, "cmd_ack", rid, result=result, index=index)

    def _arm_pending(self, index: int, source: Address, rid: str) -> None:
        pend = _PendingCmd(source, rid)
        pend.timer = self.scheduler.schedule(
            self.params.write_timeout_s, self._write_timeout, index
        )
        self._pending[index] = pend

    def _write_timeout(self, index: int) -> None:
        pend = self._pending.pop(index, None)
        if pend is None or self.closed:
            return
        # The entry stays in the log: if it commits later, the apply path
        # fills the result cache and the client's retry dedups against it.
        self._reply(pend.source, "cmd_err", pend.rid, error="no_quorum")

    # ---------------------------------------------------------- replication

    def _replicate(
        self,
        entries: List[LogEntry],
        repair_from: Optional[int] = None,
        only: Optional[str] = None,
    ) -> None:
        first = repair_from if repair_from is not None else (
            entries[0].index if entries else self.log.last_index + 1
        )
        prev_index = first - 1
        prev_term = self.log.term_at(prev_index)
        message = {
            "op": "append",
            "term": self.term,
            "commit": self.log.commit_index,
            "prev": prev_index,
            "prev_term": prev_term if prev_term is not None else -1,
            "entries": entries,
        }
        if repair_from is not None:
            message["repair"] = True
            message["from"] = repair_from
        targets = [only] if only is not None else self.peers
        message = WireFrame(message, self.codec)
        if TRACER.enabled:
            with TRACER.span(
                "repl.append",
                group=self.group,
                node=self.node_id,
                entries=len(entries),
                term=self.term,
            ):
                for peer in targets:
                    self.send_to_member(peer, message)
        else:
            for peer in targets:
                self.send_to_member(peer, message)

    def _start_beacon(self) -> None:
        self._cancel_beacon()
        self._beacon_timer = self.scheduler.schedule(
            self.params.beacon_interval_s, self._beacon
        )

    def _cancel_beacon(self) -> None:
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
            self._beacon_timer = None

    def _beacon(self) -> None:
        if self.closed or self.role != "primary":
            return
        self._replicate([])
        self._beacon_timer = self.scheduler.schedule(
            self.params.beacon_interval_s, self._beacon
        )

    def _on_append(self, source: Address, message: Dict[str, Any],
                   entries: List[LogEntry]) -> None:
        repair = message.get("repair")
        if repair and "from" not in message:  # a repair says where it starts
            drop_malformed(self)
            return
        term = message["term"]
        if term < self.term:
            self.send_to_member(source.node, {"op": "fenced", "term": self.term})
            return
        self._adopt_leader(term, source.node)
        if repair:
            self._apply_repair(message["from"], entries)
        else:
            if not self._prefix_matches(message["prev"], message["prev_term"]):
                self._request_catchup()
                return
            log = self.log
            for entry in entries:
                if entry.index <= log.snapshot_index:
                    continue
                existing = log.entry(entry.index)
                if existing is not None:
                    if existing.term == entry.term:
                        continue
                    self._truncate_from(entry.index)
                if entry.index > log.last_index + 1:
                    self._request_catchup()
                    return
                log.extend([entry])
                self._logged_rids[entry.rid] = entry.index
        commit = message["commit"]
        last_index = self.log.last_index
        if commit > last_index:
            # The primary has committed entries we do not hold yet.
            self._advance_commit(last_index)
            self._request_catchup()
            return
        self._advance_commit(commit)
        self.send_to_member(
            source.node,
            {"op": "append_ack", "term": self.term, "index": last_index},
        )

    def _prefix_matches(self, prev_index: int, prev_term: int) -> bool:
        if prev_index <= self.log.snapshot_index:
            # Our snapshot covers it: committed prefixes agree by invariant.
            return True
        if prev_index > self.log.last_index:
            return False
        local = self.log.term_at(prev_index)
        return local is not None and local == prev_term

    def _request_catchup(self) -> None:
        if self.leader is None or self.leader == self.node_id:
            return
        self.send_to_member(
            self.leader,
            {"op": "need_catchup", "from": self.log.commit_index + 1},
        )

    def _apply_repair(self, from_index: int, entries: List[LogEntry]) -> None:
        """Adopt the primary's authoritative tail starting at ``from_index``.

        The local log is made to match exactly: conflicting suffixes are
        truncated (never below commit — committed prefixes agree across the
        group by quorum intersection) and trailing local junk beyond the
        repair is dropped.
        """
        if from_index > self.log.last_index + 1:
            self._request_catchup()
            return
        for entry in entries:
            if entry.index <= self.log.snapshot_index:
                continue
            if entry.index <= self.log.commit_index:
                continue  # committed prefix already agrees
            existing = self.log.entry(entry.index)
            if existing is not None and existing.term != entry.term:
                self._truncate_from(entry.index)
                existing = None
            if existing is None:
                if entry.index > self.log.last_index + 1:
                    self._request_catchup()
                    return
                self.log.extend([entry])
                self._logged_rids[entry.rid] = entry.index
        tail_end = entries[-1].index if entries else from_index - 1
        if self.log.last_index > tail_end:
            self._truncate_from(max(tail_end + 1, self.log.commit_index + 1))

    def _truncate_from(self, index: int) -> None:
        for entry in self.log.entries_from(index):
            self._logged_rids.pop(entry.rid, None)
            pend = self._pending.pop(entry.index, None)
            if pend is not None:
                if pend.timer is not None:
                    pend.timer.cancel()
                self._reply(pend.source, "cmd_err", pend.rid, error="deposed")
        self.log.truncate_from(index)

    def _on_append_ack(self, source: Address, message: Dict[str, Any]) -> None:
        if message["term"] > self.term:
            self._step_down(message["term"])
            return
        if self.role != "primary":
            return
        index = message["index"]
        if index > self._match.get(source.node, 0):
            self._match[source.node] = index
        self._maybe_commit()

    def _maybe_commit(self) -> None:
        if self.role != "primary":
            return
        log = self.log
        new_commit = commit_index = log.commit_index
        for idx in range(commit_index + 1, log.last_index + 1):
            acks = 1 + sum(1 for m in self._match.values() if m >= idx)
            if acks < self.majority:
                break
            # Only entries of the current term commit by counting (the
            # standard safety rule); older-term entries commit transitively
            # when a current-term entry above them does.
            if log.term_at(idx) == self.term:
                new_commit = idx
        if new_commit > commit_index:
            self._advance_commit(new_commit)
            # Propagate the new commit index promptly (idle backups would
            # otherwise wait for the next beacon).
            self._replicate([])

    def _advance_commit(self, new_commit: int) -> None:
        log = self.log
        new_commit = min(new_commit, log.last_index)
        while log.commit_index < new_commit:
            log.commit_index += 1
            entry = log.entry(log.commit_index)
            self.commits += 1
            self._apply(entry)
        if (
            self.params.compact_every
            and log.commit_index - log.snapshot_index
            >= self.params.compact_every
        ):
            log.compact_to(self.applied_index)

    def _apply(self, entry: LogEntry) -> None:
        self.applied_index = entry.index
        self._logged_rids.pop(entry.rid, None)
        if entry.name == NOOP:
            outcome = Outcome(result=None)
        else:
            try:
                outcome = self.machine.apply(entry.name, entry.args)
            except MALFORMED:
                outcome = Outcome(result=_REJECTED)
        self._outcomes.append(outcome.result)
        if outcome.pending:
            self._parked.add(entry.rid)
        else:
            self._results[entry.rid] = entry.index
        for wrid, wresult in outcome.wakeups:
            self._settled[wrid] = (wresult, entry.index)
            self._parked.discard(wrid)
            waiter = self._blocked.pop(wrid, None)
            if waiter is not None and self.role == "primary":
                self._reply(waiter, "cmd_ack", wrid, result=wresult,
                            index=entry.index)
        pend = self._pending.pop(entry.index, None)
        if pend is not None:
            if pend.timer is not None:
                pend.timer.cancel()
            if outcome.pending:
                self._blocked[pend.rid] = pend.source
            else:
                self._answer(pend.source, pend.rid, outcome.result,
                             entry.index)

    # ------------------------------------------------------------- catch-up

    def _on_need_catchup(self, source: Address, message: Dict[str, Any]) -> None:
        """Bring a lagging backup up from ``from``: repair it from the log
        tail, or, where that prefix is compacted away, send the applied
        state (the machine's snapshot and the at-most-once cache, one row
        per rid) and repair the tail above it."""
        if self.role != "primary":
            return
        from_index = message["from"]
        self.catchups += 1
        if from_index <= self.log.snapshot_index:
            self.send_to_member(
                source.node,
                {
                    "op": "snapshot",
                    "term": self.term,
                    "index": self.applied_index,
                    "sterm": self.log.term_at(self.applied_index),
                    "state": self.machine.snapshot(),
                    "commit": self.log.commit_index,
                    "results": self._cache_rows(),
                },
            )
            tail = self.log.entries_from(self.applied_index + 1)
            self._replicate(
                tail, repair_from=self.applied_index + 1, only=source.node
            )
        else:
            self._replicate(
                self.log.entries_from(from_index),
                repair_from=from_index,
                only=source.node,
            )

    def _cache_rows(self) -> List[List[Any]]:
        """The at-most-once cache as a ``snapshot`` carries it: one
        ``[rid, index, result]`` per applied rid, ``[rid, index]`` where
        the machine refused the command."""
        rows = []
        for rid in {**self._results, **self._settled}:
            result, index = self._cached(rid)
            rows.append([rid, index] if result is _REJECTED
                        else [rid, index, result])
        return rows

    def _on_snapshot(self, source: Address, message: Dict[str, Any],
                     results: List[Tuple[str, Tuple[Any, int]]]) -> None:
        """Install the primary's applied state at ``index``: its machine,
        a log that starts there, and its at-most-once cache, so a command
        applied before the snapshot still answers a retry instead of
        applying again. A cache row past ``index`` is a malformed frame."""
        term, index = message["term"], message["index"]
        if not all(0 < answer[1] <= index for _rid, answer in results):
            drop_malformed(self)
            return
        if term < self.term:
            self.send_to_member(source.node, {"op": "fenced", "term": self.term})
            return
        self._adopt_leader(term, source.node)
        if index <= self.log.commit_index:
            return  # stale snapshot; we are already past it
        self.machine.restore(message["state"])
        self.log.reset(index, message["sterm"])
        self.applied_index = index
        self._results, self._outcomes = {}, []
        self._settled = dict(results)
        self._logged_rids.clear()
        self._parked = set(self.machine.pending_rids())
        self.send_to_member(
            source.node,
            {"op": "append_ack", "term": self.term, "index": self.log.last_index},
        )

    # -------------------------------------------------------------- fencing

    def _on_fenced(self, source: Address, message: Dict[str, Any]) -> None:
        term = message["term"]
        if term > self.term:
            self._step_down(term)
        self.election.on_fenced(term)

    def _step_down(self, term: int) -> None:
        """A newer term exists: become a backup and fail in-flight writes."""
        self.term = max(self.term, term)
        if self.role == "primary":
            self.role = "backup"
            self.leader = None
            self._cancel_beacon()
            for index in sorted(self._pending):
                pend = self._pending[index]
                if pend.timer is not None:
                    pend.timer.cancel()
                self._reply(pend.source, "cmd_err", pend.rid, error="deposed")
            self._pending.clear()
        self.leader = None
        self.election.note_deposed()

    def _adopt_leader(self, term: int, leader: str) -> None:
        if term > self.term or self.leader != leader:
            self.term = max(self.term, term)
            if self.role == "primary" and leader != self.node_id:
                self._step_down(term)
            self.leader = leader
            self.role = "primary" if leader == self.node_id else "backup"
            self.election.cancel()

    def _on_coord(self, source: Address, message: Dict[str, Any]) -> None:
        term = message["term"]
        if term < self.term:
            self.send_to_member(source.node, {"op": "fenced", "term": self.term})
            return
        self._adopt_leader(term, message["leader"])

    def _on_sync_req(self, source: Address, message: Dict[str, Any]) -> None:
        term = message["term"]
        if term < self.term:
            self.send_to_member(source.node, {"op": "fenced", "term": self.term})
            return
        if term > self.term:
            # Adopting the candidate's term fences the old primary during
            # the sync window, before the winner's first append.
            self._step_down(term)
        entries = self.log.entries_from(
            max(message["from_index"], self.log.first_index))
        self.send_to_member(
            source.node,
            {
                "op": "sync",
                "term": term,
                "commit": self.log.commit_index,
                "entries": entries,
            },
        )

    # ------------------------------------------------------------- election

    def become_primary(
        self,
        term: int,
        replies: Dict[str, Tuple[int, List[LogEntry]]],
    ) -> None:
        """Called by the election once a majority has synced logs with us."""
        self.term = term
        base = self.log.commit_index
        best: Dict[int, LogEntry] = {
            e.index: e for e in self.log.entries_from(base + 1)
        }
        max_commit = self.log.commit_index
        for _node, (commit, entries) in sorted(replies.items()):
            max_commit = max(max_commit, commit)
            for entry in entries:
                current = best.get(entry.index)
                if current is None or entry.term > current.term:
                    best[entry.index] = entry
        merged: List[LogEntry] = []
        idx = base + 1
        while idx in best:
            merged.append(best[idx])
            idx += 1
        self._truncate_from(base + 1)
        self.log.extend(merged)
        for entry in merged:
            self._logged_rids[entry.rid] = entry.index
        self.leader = self.node_id
        self.role = "primary"
        self._match = {p: 0 for p in self.peers}
        self._advance_commit(min(max_commit, self.log.last_index))
        self._parked = set(self.machine.pending_rids())
        # A no-op entry of the new term: committing it commits the whole
        # adopted tail (older-term entries cannot commit by counting), and
        # its replication announces term + commit to every backup.
        noop = self.log.append(self.term, f"{NOOP}-{self.group}-{self.term}", NOOP, ())
        self._logged_rids[noop.rid] = noop.index
        self.appends += 1
        for peer in self.peers:
            self.send_to_member(
                peer, {"op": "coord", "term": self.term, "leader": self.node_id}
            )
        self._replicate(
            self.log.entries_from(base + 1), repair_from=base + 1
        )
        self._maybe_commit()
        self._start_beacon()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.transport.set_receiver(None)
        self._cancel_beacon()
        self.election.shutdown()
        for pend in self._pending.values():
            if pend.timer is not None:
                pend.timer.cancel()
        self._pending.clear()
        self.detector.stop()
        if not self.transport.closed:
            self.transport.close()
        if not self.hb_transport.closed:
            self.hb_transport.close()


# ------------------------------------------------------------- deployment

TransportFactory = Callable[[str, str], Transport]


def deploy_group(
    transport_factory: TransportFactory,
    node_ids: Sequence[str],
    machine_factory: Callable[[], StateMachine],
    *,
    port: str = "repl",
    params: Optional[ReplicationParams] = None,
    group: str = "g0",
    initial_leader: Optional[str] = None,
) -> Dict[str, ReplicaNode]:
    """Stand up one replica group across ``node_ids``.

    ``transport_factory(node_id, port)`` must return a bound transport;
    each member binds ``port`` (data) and ``port + ".hb"`` (heartbeats).
    The initial primary defaults to the highest node id — the same member
    Bully election would pick — so a cold group starts without a vote.
    """
    members = sorted(node_ids)
    leader = initial_leader if initial_leader is not None else members[-1]
    replicas: Dict[str, ReplicaNode] = {}
    for node_id in members:
        replicas[node_id] = ReplicaNode(
            transport=transport_factory(node_id, port),
            hb_transport=transport_factory(node_id, f"{port}.hb"),
            members=members,
            machine=machine_factory(),
            params=params,
            initial_leader=leader,
            group=group,
        )
    return replicas


def deploy_sharded(
    transport_factory: TransportFactory,
    node_ids: Sequence[str],
    num_shards: int,
    machine_factory: Callable[[], StateMachine],
    *,
    port: str = "repl",
    params: Optional[ReplicationParams] = None,
    group_prefix: str = "shard",
):
    """Stand up ``num_shards`` replica groups over the same node set.

    Returns ``(shard_map, replicas)`` where ``replicas[shard][node]`` is a
    :class:`ReplicaNode` and the :class:`~repro.replication.shards.ShardMap`
    routes keys to the per-shard data ports (``port + ".s<i>"``).
    """
    from repro.replication.shards import ShardMap

    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    members = sorted(node_ids)
    groups = []
    replicas: Dict[int, Dict[str, ReplicaNode]] = {}
    for shard in range(num_shards):
        shard_port = f"{port}.s{shard}"
        replicas[shard] = deploy_group(
            transport_factory,
            members,
            machine_factory,
            port=shard_port,
            params=params,
            group=f"{group_prefix}{shard}",
        )
        groups.append(tuple(Address(n, shard_port) for n in members))
    return ShardMap(tuple(groups)), replicas
