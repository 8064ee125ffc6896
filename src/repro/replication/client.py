"""Client-side routing for replicated, sharded deployments.

A :class:`GroupClient` talks to one replica group: it tracks a leader
hint, follows ``redirect`` answers, scans the membership when the hint
goes cold, and retries through election windows with capped backoff — so
callers see a Promise that settles once *some* primary commits the op,
however many failovers happened in between.

Read consistency is an explicit knob (``mode``):

- ``"primary"`` (default) — linearizable; served only by a primary that
  still observes a quorum.
- ``"ryw"`` — read-your-writes; any backup whose applied index has reached
  the client's last acked write index may answer (a backup that has not
  answers ``stale`` and the client retries at the primary).
- ``"any"`` — monotonic-prefix-stale; load-balanced round-robin across
  backups, whatever they have applied.

A :class:`ShardedClient` fans a keyspace across per-shard group clients
via a :class:`~repro.replication.shards.ShardMap`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    AdmissionRefused, ConfigurationError, DeliveryError, TransactionAborted)
from repro.interop.codec import wire_plain
from repro.interop.frames import WireFrame
from repro.replication.shards import ShardMap
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, optional, present
from repro.util.ids import IdGenerator
from repro.util.promise import Promise


class _Request:
    __slots__ = ("rid", "message", "promise", "blocking", "read", "attempts",
                 "probe", "force_primary", "target", "timer", "wire")

    def __init__(self, rid: str, message: Dict[str, Any], promise: Promise,
                 blocking: bool, read: bool) -> None:
        self.rid = rid
        self.message = message
        self.promise = promise
        self.blocking = blocking
        self.read = read
        self.attempts = 0
        self.probe = 0
        self.force_primary = False
        self.target: Optional[Address] = None
        self.timer: Any = None
        # The request's lazy frame: retransmissions across timeouts/failovers
        # reuse it, so the message encodes at most once per request lifetime.
        self.wire: Optional[WireFrame] = None


_LEADER = optional((str, type(None)))  # a member may not know one


class GroupClient(MessageEndpoint):
    """Routes commands and reads to one replica group."""

    OPS = {
        "cmd_ack": ({"rid": str, "result": present, "index": int}, "_on_cmd_ack"),
        "cmd_err": ({"rid": str, "error": str}, "_on_cmd_err"),
        "redirect": ({"rid": str, "leader": _LEADER}, "_on_redirect"),
        "stale": ({"rid": str, "leader": _LEADER}, "_on_stale"),
    }

    def __init__(
        self,
        transport: Transport,
        members: Sequence[Address],
        *,
        request_timeout_s: float = 1.0,
        max_attempts: Optional[int] = 12,
        backoff_factor: float = 1.5,
        max_backoff_s: float = 4.0,
        admission: Optional[Any] = None,
        priority: str = "normal",
    ):
        if not members:
            raise ConfigurationError("a group client needs at least one member")
        super().__init__(transport)
        self.members: List[Address] = sorted(dict.fromkeys(members))
        self.request_timeout_s = request_timeout_s
        self.max_attempts = max_attempts
        self.backoff_factor = backoff_factor
        self.max_backoff_s = max_backoff_s
        # Optional AdmissionController consulted in _submit: a refused
        # request rejects immediately (with retry_after_s) instead of
        # entering the retry/failover machinery and amplifying overload.
        self.admission = admission
        self.priority = priority
        self.scheduler = transport.scheduler
        # Bully picks the highest node id, so that is the best cold guess.
        self._leader: Optional[int] = max(
            range(len(self.members)), key=lambda i: self.members[i].node
        )
        self._rr = 0
        self._requests: Dict[str, _Request] = {}
        local = transport.local_address
        self._rids = IdGenerator(f"c.{local.node}.{local.port}")
        self.seen_index = 0
        self.redirects = 0
        self.failovers = 0
        self.stale_retries = 0
        self.rejections = 0
        self.admission_rejected = 0

    # ------------------------------------------------------------------ API

    def command(
        self, name: str, *args: Any, rid: Optional[str] = None,
        blocking: bool = False,
    ) -> Promise:
        """Replicate one state mutation; fulfills with the applied result.

        ``rid`` is the idempotency key — callers with a natural one (e.g. a
        transaction id) should pass it so retries across failovers dedup.
        ``blocking`` ops (tuple-space ``in``/``rd``) retry indefinitely.
        """
        rid = rid if rid is not None else self._rids.next()
        message = {"op": "cmd", "rid": rid, "name": name, "args": args}
        return self._submit(rid, message, blocking=blocking, read=False)

    def read(self, name: str, *args: Any, mode: str = "primary") -> Promise:
        if mode not in ("primary", "ryw", "any"):
            raise ConfigurationError(f"unknown read mode {mode!r}")
        rid = self._rids.next()
        message = {
            "op": "cmd",
            "rid": rid,
            "name": name,
            "args": args,
            "read": True,
            "mode": mode,
            "min_index": self.seen_index if mode == "ryw" else 0,
        }
        return self._submit(rid, message, blocking=False, read=True)

    def close(self) -> None:
        """Cancel timers and reject everything still in flight."""
        for req in list(self._requests.values()):
            self._settle(req)
            if req.promise.pending:
                req.promise.reject(DeliveryError("group client closed"))
        if not self.transport.closed:
            self.transport.close()

    # ------------------------------------------------------------- internals

    def _submit(
        self, rid: str, message: Dict[str, Any], *, blocking: bool, read: bool
    ) -> Promise:
        promise = Promise()
        if self.admission is not None:
            retry_after = self.admission.try_admit(
                self.priority, now=self.scheduler.now()
            )
            if retry_after is not None:
                self.admission_rejected += 1
                promise.reject(AdmissionRefused(
                    f"request {rid} refused by admission class "
                    f"{self.priority!r}", retry_after_s=retry_after,
                ))
                return promise
        request = _Request(
            rid=rid, message=message, promise=promise,
            blocking=blocking, read=read,
        )
        self._requests[rid] = request
        self._send_attempt(request)
        return promise

    def _pick_target(self, request: _Request) -> Address:
        wants_primary = (
            not request.read
            or request.message.get("mode") == "primary"
            or request.force_primary
        )
        if wants_primary:
            if self._leader is not None:
                return self.members[self._leader]
            target = self.members[request.probe % len(self.members)]
            return target
        # Relaxed read: round-robin the members that are not the leader hint.
        candidates = [
            m for i, m in enumerate(self.members) if i != self._leader
        ]
        if not candidates:
            return self.members[self._leader if self._leader is not None else 0]
        target = candidates[self._rr % len(candidates)]
        self._rr += 1
        return target

    def _send_attempt(self, request: _Request) -> None:
        if request.rid not in self._requests:
            return
        if self.transport.closed:
            self._settle(request)
            if request.promise.pending:
                request.promise.reject(DeliveryError("transport closed"))
            return
        request.attempts += 1
        request.target = self._pick_target(request)
        if request.timer is not None:
            request.timer.cancel()
        request.timer = self.scheduler.schedule(
            self.request_timeout_s, self._on_timeout, request.rid,
            request.attempts,
        )
        if request.wire is None:
            request.wire = WireFrame(request.message, self.codec)
        self.transport.send(request.target, request.wire)

    def _on_timeout(self, rid: str, attempt: int) -> None:
        request = self._requests.get(rid)
        if request is None or request.attempts != attempt:
            return
        self.failovers += 1
        if (
            self._leader is not None
            and request.target == self.members[self._leader]
        ):
            self._leader = None  # the hinted leader is not answering
        request.probe += 1
        self._retry(request, immediate=True)

    def _retry(self, request: _Request, immediate: bool) -> None:
        if (
            not request.blocking
            and self.max_attempts is not None
            and request.attempts >= self.max_attempts
        ):
            self._settle(request)
            request.promise.reject(
                DeliveryError(
                    f"request {request.rid} gave up after "
                    f"{request.attempts} attempts"
                )
            )
            return
        if immediate:
            self._send_attempt(request)
            return
        delay = min(
            self.request_timeout_s
            * (self.backoff_factor ** max(0, request.attempts - 1)),
            self.max_backoff_s,
        )
        attempt = request.attempts
        if request.timer is not None:
            request.timer.cancel()
        request.timer = self.scheduler.schedule(
            delay, self._deferred_resend, request.rid, attempt
        )

    def _deferred_resend(self, rid: str, attempt: int) -> None:
        request = self._requests.get(rid)
        if request is None or request.attempts != attempt:
            return
        self._send_attempt(request)

    def _settle(self, request: _Request) -> None:
        if request.timer is not None:
            request.timer.cancel()
            request.timer = None
        self._requests.pop(request.rid, None)

    def _leader_index(self, node: Optional[str]) -> Optional[int]:
        if not node:
            return None
        for i, member in enumerate(self.members):
            if member.node == node:
                return i
        return None

    # A late answer for an already-settled request finds no entry: dropped.

    def _on_cmd_ack(self, source: Address, message: Dict[str, Any]) -> None:
        request = self._requests.get(message["rid"])
        if request is None:
            return
        if message["index"] > self.seen_index:
            self.seen_index = message["index"]
        self._settle(request)
        # The result is the replica's own object (a stored value, a cached
        # answer): the caller gets what bytes on a wire would have held.
        request.promise.fulfill(wire_plain(message["result"]))

    def _on_cmd_err(self, source: Address, message: Dict[str, Any]) -> None:
        request = self._requests.get(message["rid"])
        if request is None:
            return
        self.rejections += 1
        if message["error"] == "rejected":
            # The state machine refused the command itself; every member
            # would refuse a retry alike.
            self._settle(request)
            request.promise.reject(TransactionAborted(
                f"request {request.rid} rejected by the state machine"))
            return
        self._leader = None
        if message["error"] == "deposed":
            self._retry(request, immediate=True)
        else:  # no_quorum: wait out the election window
            request.probe += 1
            self._retry(request, immediate=False)

    def _on_redirect(self, source: Address, message: Dict[str, Any]) -> None:
        request = self._requests.get(message["rid"])
        if request is None:
            return
        self.redirects += 1
        leader = self._leader_index(message.get("leader"))
        if leader is not None and leader != self._leader:
            self._leader = leader
            self._retry(request, immediate=True)
        else:
            # The member does not know a (new) leader either: back off.
            if leader is None:
                self._leader = None
            request.probe += 1
            self._retry(request, immediate=False)

    def _on_stale(self, source: Address, message: Dict[str, Any]) -> None:
        request = self._requests.get(message["rid"])
        if request is None:
            return
        self.stale_retries += 1
        request.force_primary = True
        leader = self._leader_index(message.get("leader"))
        if leader is not None:
            self._leader = leader
        self._retry(request, immediate=True)

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, int]:
        return {
            "redirects": self.redirects,
            "failovers": self.failovers,
            "stale_retries": self.stale_retries,
            "rejections": self.rejections,
            "admission_rejected": self.admission_rejected,
            "in_flight": len(self._requests),
        }


class ShardedClient:
    """Routes a keyspace across replica groups via a :class:`ShardMap`.

    ``transport_factory(shard)`` must return a dedicated client transport
    per shard (transports are single-receiver endpoints).
    """

    def __init__(
        self,
        transport_factory: Callable[[int], Transport],
        shard_map: ShardMap,
        **client_kwargs: Any,
    ):
        self.shard_map = shard_map
        self.groups: List[GroupClient] = [
            GroupClient(
                transport_factory(shard), shard_map.groups[shard],
                **client_kwargs,
            )
            for shard in range(shard_map.num_shards)
        ]

    def group(self, key: str) -> GroupClient:
        return self.groups[self.shard_map.shard_of(key)]

    def command(
        self, key: str, name: str, *args: Any,
        rid: Optional[str] = None, blocking: bool = False,
    ) -> Promise:
        return self.group(key).command(name, *args, rid=rid, blocking=blocking)

    def read(self, key: str, name: str, *args: Any, mode: str = "primary") -> Promise:
        return self.group(key).read(name, *args, mode=mode)

    def close(self) -> None:
        for group in self.groups:
            group.close()

    def stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for group in self.groups:
            for key, value in group.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals
