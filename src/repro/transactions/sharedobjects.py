"""Distributed shared objects with invalidation-based caching.

The "shared memory" and "remote objects to physically distributed objects"
strand of the literature review ([61, 69]): a :class:`SharedObjectHost`
holds the authoritative copies; :class:`SharedObjectCache` clients read
through a local cache that the host invalidates on writes. Reads of a
cached object cost nothing on the wire; writes cost one update plus one
invalidation per caching node — the classic trade the E6 workload measures.

Protocol (codec dicts)::

    get:        {"op": "get", "rid", "key", "watch": true}   -> value + version
    put:        {"op": "put", "rid", "key", "value", "watch": true} -> new version
    invalidate: {"op": "invalidate", "key", "version"[, "wid"]}
    inv_ack:    {"op": "inv_ack", "wid"}  (write-through-acks mode only)

Watch registration rides *inside* the get/put message rather than as a
separate frame: over a lossy transport a standalone watch could be dropped
while the put it accompanied got through, leaving a cache that fills itself
but never hears invalidations — a stale-read hole no amount of host-side
care can close.

Consistency: by default writes are acknowledged as soon as the host
applies them, while invalidations race toward the caches — reads are
*coherent* (version-monotone per client) but a cache may serve a stale
value for one invalidation flight-time after a remote write completed.
With ``write_through_acks=True`` the host withholds the write ack until
every watcher has acknowledged its invalidation, which closes that window
and makes the register **linearizable**: once a write returns, no cache
anywhere still holds the old value. The simulation-testing framework
(:mod:`repro.simtest`) checks exactly that with a Wing–Gong linearizability
pass over recorded histories.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.interop.codec import wire_plain
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, optional, present
from repro.util.promise import Promise


class _Stored:
    __slots__ = ("value", "version")

    def __init__(self, value: Any, version: int) -> None:
        self.value = value
        self.version = version


class SharedObjectHost(MessageEndpoint):
    """Authoritative object store with watcher invalidation.

    ``write_through_acks=True`` selects the linearizable write protocol:
    the put ack is withheld until every watcher (other than the writer)
    has acknowledged the invalidation, so a completed write guarantees no
    cache still serves the old value. While a key has writes in that state
    the host also *defers* reads of it — answering a get mid-invalidation
    would let a reader observe the new value while another cache can still
    serve the old one, which breaks the real-time order linearizability
    promises. A watcher that is down or partitioned stalls the write (and
    reads of that key) until it acks — callers see pending promises, not
    stale-read anomalies.
    """

    OPS = {
        "get": ({"key": str, "rid": optional(str), "watch": optional(bool)},
                "_on_get"),
        "put": ({"key": str, "value": present, "rid": optional(str),
                 "watch": optional(bool)}, "_on_put"),
        "inv_ack": ({"wid": int}, "_on_inv_ack"),
    }

    def __init__(self, transport: Transport, write_through_acks: bool = False):
        super().__init__(transport)
        self.write_through_acks = write_through_acks
        self._objects: Dict[str, _Stored] = {}
        self._watchers: Dict[str, Set[Address]] = {}
        # wid -> (writer address, rid, key, version, watchers yet to ack).
        self._pending_writes: Dict[
            int, Tuple[Address, Any, str, int, Set[Address]]
        ] = {}
        self._next_wid = 0
        # key -> count of writes still gathering inv_acks; gets on such a
        # key are deferred until the count drains back to zero.
        self._pending_by_key: Dict[str, int] = {}
        self._deferred_gets: Dict[str, List[Tuple[Address, Any]]] = {}
        self.reads_served = 0

    def value(self, key: str) -> Any:
        stored = self._objects.get(key)
        return stored.value if stored else None

    def _on_get(self, source: Address, message: Dict[str, Any]) -> None:
        key = message["key"]
        if message.get("watch"):
            self._watchers.setdefault(key, set()).add(source)
        if self._get_must_wait(key):
            self._deferred_gets.setdefault(key, []).append(
                (source, message.get("rid"))
            )
            return
        self._answer_get(source, message.get("rid"), key)

    def _on_put(self, source: Address, message: Dict[str, Any]) -> None:
        key = message["key"]
        if message.get("watch"):
            self._watchers.setdefault(key, set()).add(source)
        stored = self._objects.get(key)
        version = (stored.version if stored else 0) + 1
        # A copy: the frame's value is the writer's own object.
        self._objects[key] = _Stored(wire_plain(message["value"]), version)
        waiting = self._invalidate(key, version, exclude=source)
        if self.write_through_acks and waiting:
            wid = self._next_wid = self._next_wid + 1
            self._pending_writes[wid] = (source, message.get("rid"), key,
                                         version, set(waiting))
            self._pending_by_key[key] = self._pending_by_key.get(key, 0) + 1
            for watcher in waiting:
                self._send_invalidate(watcher, key, version, wid)
            return
        for watcher in waiting:
            self._send_invalidate(watcher, key, version, None)
        self._ack(source, message, version=version)

    def _get_must_wait(self, key: str) -> bool:
        """Whether a get must be deferred behind in-flight invalidations.

        In write-through mode, answering a get while a write's invalidations
        are still outstanding leaks the new value to one reader while another
        cache can still serve the old one — a non-linearizable interleaving.
        """
        return bool(self.write_through_acks and self._pending_by_key.get(key))

    def _invalidate(self, key: str, version: int, exclude: Address) -> List[Address]:
        """Watchers owed an invalidation for this write, in stable order."""
        return [
            watcher
            for watcher in sorted(self._watchers.get(key, ()), key=str)
            if watcher != exclude
        ]

    def _send_invalidate(self, watcher: Address, key: str, version: int,
                         wid: Optional[int]) -> None:
        message: Dict[str, Any] = {"op": "invalidate", "key": key,
                                   "version": version}
        if wid is not None:
            message["wid"] = wid
        self._send(watcher, message)

    def _answer_get(self, source: Address, rid: Any, key: str) -> None:
        self.reads_served += 1
        stored = self._objects.get(key)
        self._reply(source, "got", rid,
                    value=stored.value if stored else None,
                    version=stored.version if stored else 0)

    def _on_inv_ack(self, source: Address, message: Dict[str, Any]) -> None:
        pending = self._pending_writes.get(message["wid"])
        if pending is None:
            return
        writer, rid, key, version, waiting = pending
        waiting.discard(source)
        if waiting:
            return
        del self._pending_writes[message["wid"]]
        self._reply(writer, "put_ack", rid, version=version)
        remaining = self._pending_by_key.get(key, 1) - 1
        if remaining > 0:
            self._pending_by_key[key] = remaining
            return
        self._pending_by_key.pop(key, None)
        for reader, reader_rid in self._deferred_gets.pop(key, ()):
            self._answer_get(reader, reader_rid, key)


class SharedObjectCache(MessageEndpoint):
    """A caching client: reads hit the cache until invalidated."""

    OPS = {
        "invalidate": ({"key": str, "version": int, "wid": optional(int)},
                       "_on_invalidate"),
        "got": ({"rid": str, "version": optional(int)}, "_on_reply"),
        "put_ack": ({"rid": str, "version": optional(int)}, "_on_reply"),
    }

    def __init__(
        self,
        transport: Transport,
        host_address: Address,
    ):
        super().__init__(transport, rids="so")
        self.host_address = host_address
        self._cache: Dict[str, Tuple[Any, int]] = {}
        # key -> lowest version still admissible in the cache: invalidations
        # raise it so a late-arriving get reply or put ack (reordered behind
        # the invalidation that outdates it) can never re-cache stale data.
        self._floor: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations_received = 0

    # ------------------------------------------------------------------- API

    def read(self, key: str) -> Promise:
        """Fulfills with the value; served locally when the cache is warm."""
        cached = self._cache.get(key)
        promise: Promise = Promise()
        if cached is not None:
            self.cache_hits += 1
            promise.fulfill(cached[0])
            return promise
        self.cache_misses += 1

        def fill_cache(reply: Dict[str, Any]) -> None:
            # A copy: the frame's value is the host's authoritative object.
            value = wire_plain(reply.get("value"))
            version = reply.get("version", 0)
            if version > 0:
                self._admit(key, value, version)
            promise.fulfill(value)

        # "rid" holds its place on the wire; _request fills it in.
        self._request(
            self.host_address,
            {"op": "get", "rid": None, "key": key, "watch": True},
            reply="got",
        ).on_value(fill_cache)
        return promise

    def write(self, key: str, value: Any) -> Promise:
        """Fulfills with the new version; updates the local cache eagerly."""
        # The old cached value is unservable the moment the write is issued:
        # keeping it would let this client read its own stale data after
        # another client already observed the new value.
        self._cache.pop(key, None)
        promise: Promise = Promise()

        def update_cache(reply: Dict[str, Any]) -> None:
            version = reply.get("version", 0)
            self._admit(key, value, version)
            promise.fulfill(version)

        self._request(
            self.host_address,
            {"op": "put", "rid": None, "key": key, "value": value, "watch": True},
        ).on_value(update_cache)
        return promise

    # -------------------------------------------------------------- plumbing

    def _admit(self, key: str, value: Any, version: int) -> None:
        """Cache ``value`` unless a newer version or invalidation outranks it."""
        if version < self._floor.get(key, 0):
            return
        cached = self._cache.get(key)
        if cached is not None and cached[1] > version:
            return
        self._cache[key] = (value, version)

    def _on_invalidate(self, source: Address, message: Dict[str, Any]) -> None:
        key, version = message["key"], message["version"]
        self.invalidations_received += 1
        if self._floor.get(key, 0) < version:
            self._floor[key] = version
        cached = self._cache.get(key)
        if cached is not None and cached[1] < version:
            del self._cache[key]
        if "wid" in message:
            # Write-through-acks host: confirm the stale copy is gone.
            self._send(source, {"op": "inv_ack", "wid": message["wid"]})
