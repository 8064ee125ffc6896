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

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.interop.codec import wire_plain
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, optional
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


class _Waiter:
    __slots__ = ("source", "rid", "template", "destructive")

    def __init__(self, source: Address, rid: Any, template: List[Any],
                 destructive: bool) -> None:
        self.source = source
        self.rid = rid
        self.template = template
        self.destructive = destructive


class TupleSpaceServer(MessageEndpoint):
    """The space itself."""

    OPS = {
        "out": ({"tuple": list, "rid": optional(str)}, "_handle_out"),
        **dict.fromkeys(("rd", "in", "rdp", "inp"), (
            {"template": list, "rid": optional(str)}, "_handle_request")),
    }

    def __init__(self, transport: Transport):
        super().__init__(transport)
        self._store = TupleStore()
        self._waiters: List[_Waiter] = []
        self.outs = 0
        self.reads = 0

    def __len__(self) -> int:
        return len(self._store)

    def snapshot(self) -> List[List[Any]]:
        return [list(t) for t in self._store]

    # -------------------------------------------------------------- protocol

    def _handle_out(self, source: Address, message: Dict[str, Any]) -> None:
        # A copy: the frame's list and what it nests are the sender's.
        # Answers may carry it, the store gets a list of its own.
        values = wire_plain(message["tuple"])
        self.outs += 1
        # Wake matching waiters: every rd, at most one in (which consumes).
        consumed = False
        remaining: List[_Waiter] = []
        for waiter in self._waiters:
            if consumed and waiter.destructive:
                remaining.append(waiter)
                continue
            if template_matches(waiter.template, values):
                self._reply(waiter.source, "tuple", waiter.rid, tuple=values)
                if waiter.destructive:
                    consumed = True
                else:
                    self.reads += 1
            else:
                remaining.append(waiter)
        self._waiters = remaining
        if not consumed:
            self._store.add(list(values))
        if "rid" in message:
            self._reply(source, "tuple", message["rid"], tuple=values)

    def _handle_request(self, source: Address, message: Dict[str, Any]) -> None:
        op, rid = message["op"], message.get("rid")
        template = wire_plain(message["template"])
        destructive = op in ("in", "inp")
        matched = self._store.find(template, remove=destructive)
        if matched is None:
            if op in ("rd", "in"):
                self._waiters.append(_Waiter(source, rid, template, destructive))
            else:
                self._reply(source, "tuple", rid, tuple=None)
            return
        if not destructive:
            self.reads += 1
        # A copy: the receiver may get this very list by reference.
        self._reply(source, "tuple", rid, tuple=list(matched))


class TupleSpaceClient(MessageEndpoint):
    """A handle onto a tuple-space server."""

    OPS = {
        "tuple": ({"rid": str, "tuple": optional((list, type(None)))},
                  "_on_tuple"),
    }

    def __init__(
        self,
        transport: Transport,
        space_address: Address,
    ):
        super().__init__(transport, rids="ts")
        self.space_address = space_address

    def out(self, *values: Any, confirm: bool = False) -> Optional[Promise]:
        """Write a tuple. Fire-and-forget unless ``confirm``."""
        message = {"op": "out", "tuple": list(values)}
        if confirm:
            return self._request(self.space_address, message, reply="tuple")
        self._send(self.space_address, message)
        return None

    def rd(self, *template: Any) -> Promise:
        """Blocking read: fulfills (possibly much later) with a matching tuple."""
        return self._request(
            self.space_address, {"op": "rd", "template": list(template)},
            reply="tuple")

    def in_(self, *template: Any) -> Promise:
        """Blocking take: like rd but removes the tuple."""
        return self._request(
            self.space_address, {"op": "in", "template": list(template)},
            reply="tuple")

    def rdp(self, *template: Any) -> Promise:
        """Probe read: fulfills immediately with the tuple or None."""
        return self._request(
            self.space_address, {"op": "rdp", "template": list(template)},
            reply="tuple")

    def inp(self, *template: Any) -> Promise:
        """Probe take: fulfills immediately with the tuple or None."""
        return self._request(
            self.space_address, {"op": "inp", "template": list(template)},
            reply="tuple")

    def _on_tuple(self, source: Address, message: Dict[str, Any]) -> None:
        promise, _reply = self._pending.pop(message["rid"], (None, None))
        if promise is not None:
            # A copy: the frame's list is the space's stored tuple.
            promise.fulfill(wire_plain(message.get("tuple")))
