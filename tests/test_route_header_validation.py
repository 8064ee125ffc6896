"""``RoutingAgent._on_frame`` against a reference written in the old order.

The receive path asks ``_seen`` before it builds anything, which is only
sound if validation still wins: whatever arrives — any header dict, in any
transport form, fresh or after its ``(source, seq)`` was heard — must end
exactly where the straightforward order puts it::

    decode -> control -> parse -> type checks -> duplicate -> move

``reference`` below is that order, written with ``Address.parse`` and
``Envelope`` and none of the agent's memos; the agent must agree with it on
the drop reason, the local delivery, and the bytes of the forwarded frame.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import CodecError, MiddlewareError
from repro.interop.codec import get_codec
from repro.interop.frames import FRAME_TYPES, PrefixedFrame, WireFrame, try_decode_dict
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.routing.base import Envelope, RoutingAgent
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.simnet import SimFabric

BINARY = get_codec("binary")
NODE = "hub"
LINK_SOURCE = Address("leaf0", "route")

_ADDRESSES = [
    "a:x", "a", "a:", "a:b:c", "hub:app", "hub", "hub:nope", "leaf1:app",
    "far:app", "", ":port", 0, 5, 1.5, None, True, b"a:x", ("a", "x"),
    ["a:x"], {"a": "x"}, bytearray(b"a:x"),
]
_TTLS = [5, 1, 0, -1, True, False, 2.5, 2**63, 2**70, "5", None, [5]]
_SEQS = [1, 2, True, 1.0, 2**70, -3, "1", None, (1,)]
_BODIES = [
    b"", b"xyz", bytearray(b"q"), WireFrame({"op": "x"}, BINARY),
    PrefixedFrame(b"hd", b"body"), "text", 5, None, [1], {"k": b"v"},
]
_ROUTES = [
    ["a", "hub", "leaf1"], ["a", "hub", "gone"], ["hub"], ["a", "b"], [],
    ("a", "hub", "leaf1"), "abc", {"hub": 1}, 5, None, 1.5, [1, "hub", 2],
]
_KEYS = ["s", "d", "t", "q", "b", "r"]


@st.composite
def headers(draw):
    fields = {
        "s": draw(st.sampled_from(_ADDRESSES)),
        "d": draw(st.sampled_from(_ADDRESSES)),
        "t": draw(st.sampled_from(_TTLS)),
        "q": draw(st.sampled_from(_SEQS)),
        "b": draw(st.sampled_from(_BODIES)),
    }
    if draw(st.booleans()):
        fields["r"] = draw(st.sampled_from(_ROUTES))
    # Mostly well-formed, so the duplicate and move branches are reached.
    for key, good in (("s", "a:x"), ("d", "leaf1:app"), ("t", 5), ("q", 1),
                      ("b", b"xyz")):
        if draw(st.integers(0, 3)):
            fields[key] = good
    for key in draw(st.sets(st.sampled_from(_KEYS), max_size=2)):
        if draw(st.integers(0, 2)) == 0:
            fields.pop(key, None)
    if draw(st.integers(0, 5)) == 0:
        fields["z"] = draw(st.sampled_from([1, "extra", None]))
    if draw(st.integers(0, 9)) == 0:
        fields["c"] = "rreq"
    order = draw(st.permutations(list(fields))) if draw(st.booleans()) \
        else list(fields)
    return {key: fields[key] for key in order}


def in_form(form: str, header):
    """``header`` as the payload a transport endpoint would hand up."""
    if form == "frame":
        return WireFrame(header, BINARY)
    if form == "json-frame":
        codec = get_codec("json")
        frame = WireFrame(header, codec)
        frame.materialize()  # must be sendable at all
        return frame
    return BINARY.encode(header)


class World:
    """One agent on the hub of a 2-leaf ideal star, everything recorded."""

    def __init__(self):
        self.network = topology.star(2, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(self.network)
        self.events = []
        router = FloodingRouter()
        router.handle_control = lambda source, message: self.events.append(
            ("control", source, message))
        self.agent = agent = RoutingAgent(fabric, NODE, router)
        agent.open_port("app").set_receiver(
            lambda source, body: self.events.append(
                ("deliver", str(source), bytes(body))))
        endpoint = agent.endpoint
        endpoint.broadcast = lambda frame: self.events.append(
            ("flood", bytes(frame)))
        endpoint.send = lambda destination, frame: self.events.append(
            ("forward", destination.node, bytes(frame)))
        self.seen = set()  # the reference's own duplicate table

    def feed(self, payload):
        """What the agent did with one frame, as comparable events."""
        agent = self.agent
        before = dict(agent.dropped)
        counts = (agent.delivered, agent.forwarded)
        del self.events[:]
        agent._on_frame(LINK_SOURCE, payload)
        events = list(self.events)
        events += [("drop", reason) for reason, n in agent.dropped.items()
                   for _ in range(n - before.get(reason, 0))]
        moved = (agent.delivered - counts[0], agent.forwarded - counts[1])
        return events, moved

    def reference(self, payload):
        """The same frame through the old order; no memo, objects first."""
        message = try_decode_dict(BINARY, payload)
        if message is None:
            return [("drop", "malformed")], (0, 0)
        if "c" in message:
            return [("control", LINK_SOURCE, message)], (0, 0)
        try:
            envelope = Envelope(
                source=Address.parse(message["s"]),
                destination=Address.parse(message["d"]),
                ttl=message["t"],
                seq=message["q"],
                payload=message["b"],
                route=list(message["r"]) if "r" in message else None,
            )
        except (KeyError, TypeError, ValueError, AttributeError,
                MiddlewareError):
            return [("drop", "malformed")], (0, 0)
        if not isinstance(envelope.ttl, int) \
                or not isinstance(envelope.seq, int) \
                or not isinstance(envelope.payload,
                                  (bytes, bytearray) + FRAME_TYPES):
            return [("drop", "malformed")], (0, 0)
        key = (str(envelope.source), envelope.seq)
        if key in self.seen:
            return [("drop", "duplicate")], (0, 0)
        self.seen.add(key)
        return self._moved(envelope)

    def _moved(self, envelope):
        if envelope.destination.node == NODE:
            if envelope.destination.port != "app":
                return [], (1, 0)  # injected at a port nobody bound
            return [("deliver", str(envelope.source),
                     bytes(envelope.payload))], (1, 0)
        if envelope.ttl <= 0:
            return [("drop", "ttl")], (0, 0)
        route = envelope.route
        envelope.ttl -= 1
        encoded = BINARY.encode(envelope.to_dict())
        if not route:
            return [("flood", encoded)], (0, 1)
        if NODE not in route:
            return [("drop", "not-on-route")], (0, 0)
        at = route.index(NODE)
        if at + 1 >= len(route):
            return [("drop", "route-exhausted")], (0, 0)
        next_hop = route[at + 1]
        if next_hop not in self.network:
            return [("drop", "broken-link")], (0, 0)
        return [("forward", next_hop, encoded)], (0, 1)


_FORMS = ["frame", "bytes", "json-frame"]


@settings(max_examples=400, deadline=None)
@given(header=headers(), form=st.sampled_from(_FORMS), primed=st.booleans())
def test_agent_agrees_with_the_old_order(header, form, primed):
    world = World()
    frames = []
    if primed:
        # A well-formed envelope from the same (source, seq), heard first.
        frames.append(("frame", {"s": header.get("s"), "d": "far:app", "t": 3,
                                 "q": header.get("q"), "b": b""}))
    # Twice: the second copy arrives after whatever the first one left.
    frames += [(form, header), (form, header)]
    for each_form, each_header in frames:
        try:
            # One payload object each: materializing a frame caches.
            payload, twin = (in_form(each_form, each_header) for _ in "ab")
        except CodecError:
            assume(False)  # not expressible in this form (JSON bytes, ...)
        assert world.feed(payload) == world.reference(twin), (
            each_form, each_header)


class TestMalformedBeatsDuplicate:
    """The explicit regressions behind the property above."""

    @pytest.mark.parametrize("bad", [
        {"t": "5"}, {"t": 2.5}, {"t": None}, {"q": 1.0}, {"b": "text"},
        {"d": ""}, {"d": ":app"}, {"d": ["leaf1:app"]}, {"r": 5},
    ])
    def test_seen_source_seq_with_a_bad_field_is_malformed(self, bad):
        world = World()
        good = {"s": "a:x", "d": "leaf1:app", "t": 5, "q": 1, "b": b"xyz"}
        world.feed(WireFrame(good, BINARY))
        assert world.feed(WireFrame(dict(good), BINARY))[0] == [
            ("drop", "duplicate")]
        assert world.feed(WireFrame({**good, **bad}, BINARY))[0] == [
            ("drop", "malformed")]
        assert world.agent.dropped == {"duplicate": 1, "malformed": 1}

    def test_missing_field_after_seen_is_malformed(self):
        world = World()
        good = {"s": "a:x", "d": "leaf1:app", "t": 5, "q": 1, "b": b"xyz"}
        world.feed(WireFrame(good, BINARY))
        for key in ("d", "t", "b"):
            partial = {k: v for k, v in good.items() if k != key}
            assert world.feed(WireFrame(partial, BINARY))[0] == [
                ("drop", "malformed")]

    def test_equivalent_spellings_of_one_source_share_a_seen_entry(self):
        # "a" and "a:default" parse to the same Address: one (source, seq).
        world = World()
        base = {"d": "leaf1:app", "t": 5, "q": 9, "b": b""}
        assert world.feed(WireFrame({"s": "a", **base}, BINARY))[1] == (0, 1)
        assert world.feed(WireFrame({"s": "a:default", **base}, BINARY))[0] \
            == [("drop", "duplicate")]

    def test_address_memo_is_bounded(self):
        world = World()
        agent = world.agent
        for i in range(agent._ADDRESS_MEMO_CAP + 50):
            world.feed(WireFrame({"s": f"n{i}:x", "d": "leaf1:app", "t": 2,
                                  "q": 1, "b": b""}, BINARY))
        assert len(agent._addresses) <= agent._ADDRESS_MEMO_CAP
        assert agent.forwarded == agent._ADDRESS_MEMO_CAP + 50
