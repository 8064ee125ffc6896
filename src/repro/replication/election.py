"""Bully coordinator election over heartbeat suspicion.

The classic Bully algorithm (Garcia-Molina 1982), adapted to the
replicated log: members are totally ordered by node id, a member that
suspects the primary challenges every *higher* member (``elect``); anyone
higher answers ``elect_ok`` and runs its own round; a candidate that hears
no ``elect_ok`` within the timeout has won the vote — but before taking
office it must **sync**: it requests log tails (``sync_req``) from every
peer and only becomes primary after a majority (counting itself) answered.
Quorum intersection then guarantees the new primary holds every committed
entry; adopting the highest-term entry per index resolves conflicts in
favour of the newest regime.

``sync_req`` doubles as the fence: receivers adopt the candidate's term
immediately, so a deposed primary is rejected (``fenced``) by the quorum
before the winner's first append, not merely after.

A candidate that cannot assemble a sync majority (partitioned minority)
does **not** take office — it backs off and retries, leaving the minority
side with no primary and therefore no writes.

Election is triggered by the failure detector's suspect transition
(:meth:`repro.recovery.heartbeat.HeartbeatDetector.on_suspect`), which
fires exactly once per alive→suspected flip — flapping cannot start
duplicate concurrent rounds. Deterministic under the simulator clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracing import TRACER
from repro.replication.log import LogEntry


class BullyElection:
    """One member's view of the election protocol; owned by a ReplicaNode."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self._phase = "idle"  # idle | waiting_ok | waiting_coord | syncing
        self._proposed_term = replica.term
        self._sync_replies: Dict[str, Tuple[int, List[LogEntry]]] = {}
        self._timer: Any = None
        self._retry_timer: Any = None
        self.rounds = 0

    # ------------------------------------------------------------- triggers

    def start(self) -> None:
        """Begin a round (suspicion of the primary); no-op mid-election."""
        if self.replica.closed or self._phase != "idle":
            return
        self._round()

    def note_deposed(self) -> None:
        """We were fenced/deposed: if no leader announces itself soon, run."""
        self._arm_retry()

    def on_fenced(self, term: int) -> None:
        """A peer rejected our candidacy: a newer regime exists; back off."""
        if self._phase != "idle":
            self.cancel()
            self._arm_retry()

    # -------------------------------------------------------------- the vote

    def _round(self) -> None:
        replica = self.replica
        self.rounds += 1
        self._proposed_term = max(self._proposed_term, replica.term) + 1
        higher = [m for m in replica.members if m > replica.node_id]
        message = {"op": "elect", "term": self._proposed_term}
        if TRACER.enabled:
            with TRACER.span(
                "repl.election.round",
                group=replica.group,
                node=replica.node_id,
                term=self._proposed_term,
            ):
                for member in higher:
                    replica.send_to_member(member, message)
        else:
            for member in higher:
                replica.send_to_member(member, message)
        if not higher:
            self._begin_sync()
            return
        self._phase = "waiting_ok"
        self._arm(replica.params.elect_timeout_s, self._elect_timeout)

    def _elect_timeout(self) -> None:
        if self._phase == "waiting_ok":
            # No higher member answered: the vote is ours, prove quorum.
            self._begin_sync()

    def on_elect(self, source_node: str, term: int) -> None:
        """A lower-priority member is campaigning: answer and take over."""
        replica = self.replica
        if replica.closed or source_node >= replica.node_id:
            return
        replica.send_to_member(source_node, {"op": "elect_ok", "term": term})
        if replica.role == "primary":
            if replica._quorum_alive():
                # Healthy primary: reassert instead of running a round.
                replica.send_to_member(
                    source_node,
                    {"op": "coord", "term": replica.term, "leader": replica.node_id},
                )
            return
        if self._phase == "idle":
            self.start()

    def on_elect_ok(self, term: int) -> None:
        if self._phase == "waiting_ok" and term == self._proposed_term:
            # A higher member took over; wait for its coordinator announce.
            self._phase = "waiting_coord"
            self._arm(self.replica.params.coord_timeout_s, self._coord_timeout)

    def _coord_timeout(self) -> None:
        if self._phase == "waiting_coord":
            # The higher candidate died mid-election: run again.
            self._round()

    # ------------------------------------------------------------- the sync

    def _begin_sync(self) -> None:
        replica = self.replica
        self._phase = "syncing"
        self._sync_replies = {}
        if not replica.peers:
            self._finish_sync()
            return
        message = {
            "op": "sync_req",
            "term": self._proposed_term,
            "from_index": replica.log.commit_index + 1,
        }
        for peer in replica.peers:
            replica.send_to_member(peer, message)
        self._arm(replica.params.sync_timeout_s, self._finish_sync)

    def on_sync(
        self, node: str, term: int, commit: int, entries: List[LogEntry]
    ) -> None:
        if self._phase != "syncing" or term != self._proposed_term:
            return
        self._sync_replies[node] = (commit, entries)
        if len(self._sync_replies) == len(self.replica.peers):
            self._finish_sync()

    def _finish_sync(self) -> None:
        if self._phase != "syncing":
            return
        self._disarm()
        self._phase = "idle"
        replica = self.replica
        replies = self._sync_replies
        self._sync_replies = {}
        if 1 + len(replies) < replica.majority:
            # Partitioned minority: refuse office, retry until healed.
            self._arm_retry()
            return
        replica.become_primary(self._proposed_term, replies)

    # ------------------------------------------------------------- plumbing

    def cancel(self) -> None:
        """A coordinator announced itself (or we shut down): stand down."""
        self._phase = "idle"
        self._disarm()

    def shutdown(self) -> None:
        """Node closing: cancel everything, including the retry timer."""
        self.cancel()
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    def _arm(self, delay: float, fn) -> None:
        self._disarm()
        self._timer = self.replica.scheduler.schedule(delay, fn)

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        self._retry_timer = self.replica.scheduler.schedule(
            self.replica.params.coord_timeout_s, self._retry
        )

    def _retry(self) -> None:
        self._retry_timer = None
        replica = self.replica
        if replica.closed or self._phase != "idle":
            return
        if replica.leader is None:
            self._round()
