"""Linda-style tuple space.

The shared-memory/tuple-space middleware of the literature review ([69, 70];
LIME [68, 100] is the authors' own lineage). A tuple is a list of values; a
template is a list where ``None`` matches anything and a type-name string
like ``"?int"`` matches any value of that type. Operations:

* ``out(tuple)`` — write;
* ``rd(template)`` / ``in_(template)`` — blocking read / take (the promise
  settles when a match appears);
* ``rdp(template)`` / ``inp(template)`` — non-blocking probes (fulfill with
  the tuple or None immediately).

Blocked readers are served in arrival order; a single ``out`` wakes every
matching ``rd`` but only the first matching ``in``.

Protocol (codec dicts): ``{"op": out|rd|in|rdp|inp, "rid", "tuple"|"template"}``
answered by ``{"op": "tuple", "rid", "tuple": t or None}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.interop.codec import Codec, get_codec, try_decode_dict, wire_plain
from repro.interop.frames import WireFrame
from repro.transport.base import Address, Transport, drop_malformed
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

_TYPE_NAMES = {
    "?int": int,
    "?float": float,
    "?str": str,
    "?bool": bool,
    "?bytes": bytes,
    "?list": list,
    "?dict": dict,
}


def template_matches(template: List[Any], candidate: List[Any]) -> bool:
    """Match a template against a tuple."""
    if len(template) != len(candidate):
        return False
    for pattern, value in zip(template, candidate):
        if pattern is None:
            continue
        if isinstance(pattern, str) and pattern in _TYPE_NAMES:
            expected = _TYPE_NAMES[pattern]
            if expected in (int, float) and isinstance(value, bool):
                return False
            if not isinstance(value, expected):
                return False
            continue
        if pattern != value:
            return False
    return True


class TupleStore:
    """Insertion-ordered tuples with an inverted index over their fields.

    ``find`` returns the *first match in insertion order* — what a linear
    scan returns — without scanning. Every hashable field is indexed under
    ``(arity, position, value)``; a template's concrete fields select
    buckets, the smallest bucket is walked in insertion order and each
    candidate verified by :func:`template_matches`. A match lies in every
    one of the template's buckets (equal values hash alike), so the first
    match within any one bucket is the first match overall. Unhashable
    fields are not indexed and unhashable patterns select no bucket: the
    index only narrows, ``template_matches`` alone decides.

    The store owns its lists and trusts them not to change: callers copy
    before handing a result to anyone who might mutate it.
    """

    def __init__(self, tuples: Iterable[List[Any]] = ()):
        self._next_seq = 0
        self._tuples: Dict[int, List[Any]] = {}
        self._index: Dict[Tuple[int, int, Any], Dict[int, None]] = {}
        for values in tuples:
            self.add(values)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[List[Any]]:
        return iter(self._tuples.values())

    def add(self, values: List[Any]) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._tuples[seq] = values
        index = self._index
        arity = len(values)
        for position, value in enumerate(values):
            key = (arity, position, value)
            try:
                bucket = index.get(key)
            except TypeError:  # unhashable field: found by verification only
                continue
            if bucket is None:
                index[key] = {seq: None}
            else:
                bucket[seq] = None

    def find(self, template: List[Any], remove: bool = False) -> Optional[List[Any]]:
        """The first stored tuple matching ``template``, or None."""
        index = self._index
        arity = len(template)
        candidates: Optional[Dict[int, None]] = None
        for position, pattern in enumerate(template):
            if pattern is None:
                continue
            try:
                if pattern in _TYPE_NAMES:
                    continue
                bucket = index.get((arity, position, pattern))
            except TypeError:  # unhashable pattern: selects no bucket
                continue
            if bucket is None:
                return None
            if candidates is None or len(bucket) < len(candidates):
                candidates = bucket
        tuples = self._tuples
        for seq in tuples if candidates is None else candidates:
            values = tuples[seq]
            if template_matches(template, values):
                if remove:
                    # Mutates the dict under iteration; safe only because
                    # the loop is left before the iterator advances.
                    self._remove(seq, values)
                return values
        return None

    def _remove(self, seq: int, values: List[Any]) -> None:
        del self._tuples[seq]
        index = self._index
        arity = len(values)
        for position, value in enumerate(values):
            key = (arity, position, value)
            try:
                bucket = index[key]
            except TypeError:
                continue
            del bucket[seq]
            if not bucket:
                del index[key]


@dataclass
class _Waiter:
    source: Address
    rid: Any
    template: List[Any]
    destructive: bool


class TupleSpaceServer:
    """The space itself."""

    def __init__(self, transport: Transport, codec: Optional[Codec] = None):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self._store = TupleStore()
        self._waiters: List[_Waiter] = []
        self.outs = 0
        self.takes = 0
        self.reads = 0
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

    def __len__(self) -> int:
        return len(self._store)

    def snapshot(self) -> List[List[Any]]:
        return [list(t) for t in self._store]

    # -------------------------------------------------------------- protocol

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if message is None:
            drop_malformed(self)
            return
        op = message.get("op")
        rid = message.get("rid")
        if op == "out":
            values = message.get("tuple")
            if not isinstance(values, list):
                drop_malformed(self)
                return
            # A copy: the frame's list and what it nests are the sender's.
            values = wire_plain(values)
            self._handle_out(values)
            if rid is not None:
                self._answer(source, rid, values)
        elif op in ("rd", "in", "rdp", "inp"):
            template = message.get("template")
            if not isinstance(template, list):
                drop_malformed(self)
                return
            self._handle_request(
                source, rid, wire_plain(template),
                destructive=op in ("in", "inp"), blocking=op in ("rd", "in"),
            )

    def _answer(self, destination: Address, rid: Any, value: Optional[List[Any]]) -> None:
        self.transport.send(
            destination,
            WireFrame({"op": "tuple", "rid": rid, "tuple": value}, self.codec),
        )

    def _handle_out(self, values: List[Any]) -> None:
        """``values`` is the space's copy of the received tuple: answers may
        carry it, the store gets a list of its own."""
        self.outs += 1
        # Wake matching waiters: every rd, at most one in (which consumes).
        consumed = False
        remaining: List[_Waiter] = []
        for waiter in self._waiters:
            if consumed and waiter.destructive:
                remaining.append(waiter)
                continue
            if template_matches(waiter.template, values):
                self._answer(waiter.source, waiter.rid, values)
                if waiter.destructive:
                    self.takes += 1
                    consumed = True
                else:
                    self.reads += 1
            else:
                remaining.append(waiter)
        self._waiters = remaining
        if not consumed:
            self._store.add(list(values))

    def _handle_request(
        self, source: Address, rid: Any, template: List[Any],
        destructive: bool, blocking: bool,
    ) -> None:
        matched = self._store.find(template, remove=destructive)
        if matched is None:
            if blocking:
                self._waiters.append(_Waiter(source, rid, template, destructive))
            else:
                self._answer(source, rid, None)
            return
        if destructive:
            self.takes += 1
        else:
            self.reads += 1
        # A copy: the receiver may get this very list by reference.
        self._answer(source, rid, list(matched))


class TupleSpaceClient:
    """A handle onto a tuple-space server."""

    def __init__(
        self,
        transport: Transport,
        space_address: Address,
        codec: Optional[Codec] = None,
    ):
        self.transport = transport
        self.space_address = space_address
        self.codec = codec if codec is not None else get_codec("binary")
        self._rids = IdGenerator(f"ts:{transport.local_address}")
        self._pending: Dict[str, Promise] = {}
        self.malformed_frames = 0
        transport.set_receiver(self._on_message)

    def _request(self, message: Dict[str, Any]) -> Promise:
        rid = self._rids.next()
        message["rid"] = rid
        promise: Promise = Promise()
        self._pending[rid] = promise
        self.transport.send(self.space_address, WireFrame(message, self.codec))
        return promise

    def out(self, *values: Any, confirm: bool = False) -> Optional[Promise]:
        """Write a tuple. Fire-and-forget unless ``confirm``."""
        if confirm:
            return self._request({"op": "out", "tuple": list(values)})
        self.transport.send(
            self.space_address,
            WireFrame({"op": "out", "tuple": list(values)}, self.codec),
        )
        return None

    def rd(self, *template: Any) -> Promise:
        """Blocking read: fulfills (possibly much later) with a matching tuple."""
        return self._request({"op": "rd", "template": list(template)})

    def in_(self, *template: Any) -> Promise:
        """Blocking take: like rd but removes the tuple."""
        return self._request({"op": "in", "template": list(template)})

    def rdp(self, *template: Any) -> Promise:
        """Probe read: fulfills immediately with the tuple or None."""
        return self._request({"op": "rdp", "template": list(template)})

    def inp(self, *template: Any) -> Promise:
        """Probe take: fulfills immediately with the tuple or None."""
        return self._request({"op": "inp", "template": list(template)})

    def _on_message(self, source: Address, payload: bytes) -> None:
        message = try_decode_dict(self.codec, payload)
        if message is None:
            drop_malformed(self)
            return
        rid = message.get("rid")
        value = message.get("tuple")
        if not isinstance(rid, str) or not isinstance(value, (list, type(None))):
            drop_malformed(self)
            return
        promise = self._pending.pop(rid, None)
        if promise is not None:
            # A copy: the frame's list is the space's stored tuple.
            promise.fulfill(wire_plain(value))
