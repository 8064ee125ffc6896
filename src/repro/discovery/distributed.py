"""Completely distributed service discovery.

No directory anywhere: every node runs a :class:`DistributedDiscovery`
agent. Suppliers flood hop-limited advertisements; consumers flood
hop-limited queries; matching nodes reply along the recorded reverse path.
Agents cache overheard advertisements, so repeated lookups can be answered
locally — the caching ablation in experiment E2.

This is the "completely distributed" end of Section 3.3's design space; the
centralized end is :mod:`repro.discovery.registry` and the hybrid is
:mod:`repro.discovery.adaptive`.

Requires a transport with broadcast support
(:class:`repro.transport.simnet.SimTransport`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Matcher, Query
from repro.errors import ConfigurationError, DiscoveryError
from repro.interop.frames import WireFrame
from repro.transport.base import Address, drop_malformed
from repro.transport.endpoint import MessageEndpoint, list_of
from repro.transport.simnet import SimTransport
from repro.util.events import EventEmitter
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

DEFAULT_TTL = 4
DEFAULT_ADVERT_INTERVAL_S = 10.0
DEFAULT_ADVERT_LEASE_S = 30.0
DEFAULT_COLLECT_WINDOW_S = 1.0


class CachedAdvert:
    __slots__ = ("description", "expires_at")

    def __init__(self, description: ServiceDescription,
                 expires_at: float) -> None:
        self.description = description
        self.expires_at = expires_at


_DESCRIPTIONS = list_of(ServiceDescription.from_dict)


class DistributedDiscovery(MessageEndpoint):
    """One node's discovery agent.

    Parameters:
        transport: a broadcast-capable transport bound to this node.
        ttl: flood scope (hops) for adverts and queries.
        advertise_interval_s: period of advertisement refresh floods.
        advert_lease_s: how long overheard adverts stay cached.
        use_cache: answer lookups from the advert cache as well as from
            network replies (the E2 ablation flag).
    """

    # A flood delivers most frames more than once: the gates drop what was
    # already heard before its descriptions or query are parsed again. A
    # reply's results are parsed by whoever collects them, not by a relay.
    OPS = {
        "advert": ({"origin": str, "seq": int, "ttl": int,
                    "descs": _DESCRIPTIONS}, "_on_advert", "_unheard"),
        "withdraw": ({"origin": str, "seq": int, "ttl": int,
                      "service_id": str}, "_on_withdraw", "_unheard"),
        "query": ({"origin": str, "qid": str, "ttl": int,
                   "query": Query.from_dict}, "_on_query", "_unasked"),
        "reply": ({"qid": str, "results": list}, "_on_query_reply"),
    }

    def __init__(
        self,
        transport: SimTransport,
        ttl: int = DEFAULT_TTL,
        advertise_interval_s: float = DEFAULT_ADVERT_INTERVAL_S,
        advert_lease_s: float = DEFAULT_ADVERT_LEASE_S,
        collect_window_s: float = DEFAULT_COLLECT_WINDOW_S,
        use_cache: bool = True,
    ):
        if ttl < 1:
            raise ConfigurationError(f"ttl must be >= 1, got {ttl!r}")
        super().__init__(transport)
        self.node_id = transport.local_address.node
        self.ttl = ttl
        self.advertise_interval_s = advertise_interval_s
        self.advert_lease_s = advert_lease_s
        self.collect_window_s = collect_window_s
        self.use_cache = use_cache
        self.events = EventEmitter()

        self._local: Dict[str, ServiceDescription] = {}
        self._cache: Dict[str, CachedAdvert] = {}
        # Recently withdrawn ids: filters results of in-flight lookups whose
        # cache snapshot predates the withdrawal. Cleared on re-advertisement.
        self._withdrawn: Set[str] = set()
        self._matcher = Matcher()
        self._qids = IdGenerator(f"q:{self.node_id}")
        self._advert_seq = 0
        self._seen_adverts: Set[Tuple[str, int]] = set()
        self._seen_queries: Set[str] = set()
        # qid -> (previous hop address, expiry) for reverse-path replies.
        self._reverse_path: Dict[str, Tuple[Address, float]] = {}
        # qid -> (collector list, query) for lookups this node originated.
        self._collecting: Dict[str, Tuple[List[ServiceDescription], Query]] = {}

        self.messages_sent: Dict[str, int] = {
            "advert": 0, "query": 0, "reply": 0, "withdraw": 0,
        }
        self._advert_timer = transport.scheduler.schedule(
            self.advertise_interval_s, self._periodic_advertise
        )

    # ----------------------------------------------------------- supplier API

    def advertise(self, description: ServiceDescription) -> None:
        """Publish a local service; floods immediately and on every refresh."""
        self._local[description.service_id] = description
        self._withdrawn.discard(description.service_id)
        self._flood_adverts([description])

    def withdraw(self, service_id: str) -> None:
        """Unpublish a local service and flood a cache invalidation so
        consumers stop matching it before their cached advert would expire."""
        if self._local.pop(service_id, None) is None:
            return
        self._withdrawn.add(service_id)
        self._advert_seq += 1
        self._seen_adverts.add((self.node_id, self._advert_seq))
        self._broadcast(
            "withdraw",
            {"op": "withdraw", "origin": self.node_id, "seq": self._advert_seq,
             "ttl": self.ttl, "service_id": service_id},
        )

    # ----------------------------------------------------------- consumer API

    def lookup(self, query: Query) -> Promise:
        """Flood a query; fulfills after the collect window with ranked,
        deduplicated :class:`ServiceDescription` results."""
        qid = self._qids.next()
        collected: List[ServiceDescription] = []
        self._collecting[qid] = (collected, query)
        if self.use_cache:
            self._prune_cache()
            for cached in self._cache.values():
                collected.append(cached.description)
        collected.extend(self._local.values())
        self._send_query(qid, query, self.ttl)

        promise: Promise = Promise()
        self.transport.scheduler.schedule(
            self.collect_window_s, self._finish_lookup, qid, promise
        )
        return promise

    def _finish_lookup(self, qid: str, promise: Promise) -> None:
        collected, query = self._collecting.pop(qid, ([], None))
        if query is None:
            promise.fulfill([])
            return
        unique: Dict[str, ServiceDescription] = {}
        for description in collected:
            if description.service_id in self._withdrawn:
                continue
            unique[description.service_id] = description
        ranked = self._matcher.match(list(unique.values()), query)
        promise.fulfill([m.description for m in ranked])

    # --------------------------------------------------------------- flooding

    def _now(self) -> float:
        return self.transport.scheduler.now()

    def _broadcast(self, op: str, message: Dict[str, Any]) -> None:
        self.messages_sent[op] += 1
        self.transport.broadcast(WireFrame(message, self.codec))

    def _flood_adverts(self, descriptions: List[ServiceDescription]) -> None:
        if not descriptions:
            return
        self._advert_seq += 1
        self._seen_adverts.add((self.node_id, self._advert_seq))
        self._broadcast(
            "advert",
            {
                "op": "advert",
                "origin": self.node_id,
                "seq": self._advert_seq,
                "ttl": self.ttl,
                "descs": [d.to_dict() for d in descriptions],
            },
        )

    def _periodic_advertise(self) -> None:
        if self.transport.closed:
            return
        if self._local:
            self._flood_adverts(list(self._local.values()))
        self._advert_timer = self.transport.scheduler.schedule(
            self.advertise_interval_s, self._periodic_advertise
        )

    def _send_query(self, qid: str, query: Query, ttl: int) -> None:
        self._seen_queries.add(qid)
        self._broadcast(
            "query",
            {"op": "query", "origin": self.node_id, "qid": qid, "ttl": ttl,
             "query": query.to_dict()},
        )

    # -------------------------------------------------------------- receiving

    def _unheard(self, source: Address, message: Dict[str, Any]) -> bool:
        return (message["origin"], message["seq"]) not in self._seen_adverts

    def _unasked(self, source: Address, message: Dict[str, Any]) -> bool:
        return message["qid"] not in self._seen_queries

    def _on_withdraw(self, source: Address, message: Dict[str, Any]) -> None:
        self._seen_adverts.add((message["origin"], message["seq"]))
        self._cache.pop(message["service_id"], None)
        self._withdrawn.add(message["service_id"])
        ttl = message["ttl"] - 1
        if ttl >= 1:
            self._broadcast("withdraw", {**message, "ttl": ttl})

    def _on_advert(self, source: Address, message: Dict[str, Any],
                   descriptions: List[ServiceDescription]) -> None:
        self._seen_adverts.add((message["origin"], message["seq"]))
        expires = self._now() + self.advert_lease_s
        fresh = []
        for description in descriptions:
            if description.service_id not in self._cache:
                fresh.append(description)
            self._withdrawn.discard(description.service_id)
            self._cache[description.service_id] = CachedAdvert(description, expires)
        for description in fresh:
            self.events.emit("service_discovered", description)
        ttl = message["ttl"] - 1
        if ttl >= 1:
            self._broadcast("advert", {**message, "ttl": ttl})

    def _on_query(self, source: Address, message: Dict[str, Any],
                  query: Query) -> None:
        qid = message["qid"]
        self._seen_queries.add(qid)
        self._reverse_path[qid] = (source, self._now() + 30.0)
        matches = self._matcher.match(list(self._local.values()), query)
        if matches:
            self.messages_sent["reply"] += 1
            self._send(source, {
                "op": "reply",
                "qid": qid,
                "origin": message["origin"],
                "results": [m.description.to_dict() for m in matches],
            })
        ttl = message["ttl"] - 1
        if ttl >= 1:
            self._broadcast("query", {**message, "ttl": ttl})

    def _on_query_reply(self, source: Address, message: Dict[str, Any]) -> None:
        qid = message["qid"]
        collecting = self._collecting.get(qid)
        if collecting is not None:
            collected, _query = collecting
            try:
                collected.extend(_DESCRIPTIONS(message["results"]))
            except DiscoveryError:
                drop_malformed(self)
            return
        # Not ours: forward along the recorded reverse path.
        hop = self._reverse_path.get(qid)
        if hop is not None:
            previous, _expires = hop
            self.messages_sent["reply"] += 1
            self._send(previous, message)

    # --------------------------------------------------------------- plumbing

    def _prune_cache(self) -> None:
        now = self._now()
        stale = [sid for sid, entry in self._cache.items() if entry.expires_at <= now]
        for sid in stale:
            del self._cache[sid]

    def total_messages_sent(self) -> int:
        return sum(self.messages_sent.values())

    def close(self) -> None:
        self._advert_timer.cancel()
        self.transport.close()
