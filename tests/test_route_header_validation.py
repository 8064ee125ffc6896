"""``RoutingAgent._on_frame`` against a reference written in the old order.

The receive path asks ``_seen`` before it builds anything, which is only
sound if validation still wins: whatever arrives — any header dict, in any
transport form, fresh or after its ``(source, seq)`` was heard — must end
exactly where the straightforward order puts it::

    decode -> control -> parse -> type checks -> duplicate -> move

``reference`` below is that order, written with ``Address.parse`` and
``Envelope`` and none of the agent's memos; the agent must agree with it on
the drop reason, the local delivery, and the bytes of the forwarded frame.

The reference's duplicate table is a plain set of ``(origin text, seq)``
pairs. Every router keeps its own as origin -> set of seqs; the last three
properties run long hearings against that set — ports of one node on one
seq counter, odd seqs, equivalent spellings, a node's own floods heard back
— for the agent, DSR's route requests and diffusion's interests and data.
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
from repro.routing.datacentric import DataCentricAgent
from repro.routing.dsr import DsrRouter
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
_SEQS = [1, 2, True, 0, 1.0, 2**63, 2**70, -3, "1", None, (1,)]
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
        self.port = agent.open_port("app")
        self.port.set_receiver(
            lambda source, body: self.events.append(
                ("deliver", str(source), bytes(body))))
        endpoint = agent.endpoint
        endpoint.broadcast = lambda frame: self.events.append(
            ("flood", bytes(frame)))
        endpoint.send = lambda destination, frame: self.events.append(
            ("forward", destination.node, bytes(frame)))
        self.seen = set()  # the reference's own duplicate table
        self.own_seqs = 0  # the reference's count of the agent's originations

    def feed(self, payload):
        """What the agent did with one frame, as comparable events."""
        return self.observe(lambda: self.agent._on_frame(LINK_SOURCE, payload))

    def originate(self):
        """What the agent did when its ``app`` port sent a flood."""
        return self.observe(lambda: self.port.send(Address("far", "app"), b"mine"))

    def observe(self, action):
        agent = self.agent
        before = dict(agent.dropped)
        counts = (agent.delivered, agent.forwarded)
        del self.events[:]
        action()
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

    def reference_originate(self):
        """The flood the agent must send, its own pair recorded first."""
        self.own_seqs += 1
        self.seen.add((f"{NODE}:app", self.own_seqs))
        return self._moved(Envelope(Address(NODE, "app"), Address("far", "app"),
                                    self.agent.default_ttl, self.own_seqs,
                                    b"mine"))

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


# ------------------------------------------------ duplicate tables vs a set

#: Origins of one node's ports, two spellings of one of them ("a" is
#: "a:default"), another node, and the hub's own routed port.
_FLOOD_SOURCES = ["a:x", "a:y", "a:z", "a", "a:default", "b:x", f"{NODE}:app"]
_ODD_SEQS = [True, False, 0, 1, -1, -(2**63), 2**63 - 1, 2**63, 2**64 + 1]


@st.composite
def hearings(draw, sources, own_kinds, heard_kinds=("hear",)):
    """A run of steps: floods heard, or the node's own (``own_kinds``).

    A heard flood's seq is the next value of one counter that every source
    shares (an agent numbers all its ports' floods from one counter), or an
    earlier value of it under any source, or an odd int, or one of the
    node's own seqs coming back under its own origin, the last of
    ``sources``.
    """
    steps, counter, own = [], 0, 0
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(list(heard_kinds) + list(own_kinds)))
        if kind in own_kinds:
            own += 1
            steps.append((kind, None, None))
            continue
        source = draw(st.sampled_from(sources))
        how = draw(st.sampled_from(["next", "again", "odd", "own"]))
        if how == "next":
            counter += 1
            seq = counter
        elif how == "again":
            seq = draw(st.integers(1, max(counter, 1)))
        elif how == "odd":
            seq = draw(st.sampled_from(_ODD_SEQS))
        else:
            source = sources[-1]
            seq = draw(st.integers(1, max(own, 1)))
        steps.append((kind, source, seq))
    return steps


@settings(max_examples=300, deadline=None)
@given(steps=hearings(_FLOOD_SOURCES, ["originate"]))
def test_agent_duplicate_table_agrees_with_a_set_of_pairs(steps):
    world = World()
    drops = {}
    for kind, source, seq in steps:
        if kind == "originate":
            got, want = world.originate(), world.reference_originate()
        else:
            header = {"s": source, "d": "far:app", "t": 5, "q": seq, "b": b""}
            got = world.feed(WireFrame(header, BINARY))
            want = world.reference(WireFrame(dict(header), BINARY))
        assert got == want, (kind, source, seq)
        for event in want[0]:
            if event[0] == "drop":
                drops[event[1]] = drops.get(event[1], 0) + 1
    assert world.agent.dropped == drops
    assert world.agent.originated == world.own_seqs


class DsrWorld:
    """DSR on the hub of the same star, its control sends recorded."""

    def __init__(self):
        fabric = SimFabric(topology.star(2, radius=40, radio_profile=IDEAL_RADIO))
        self.router = DsrRouter(NODE)
        self.agent = RoutingAgent(fabric, NODE, self.router)
        self.sent = []
        self.agent.send_control = lambda destination, message: self.sent.append(
            (destination, message))
        self.seen = set()
        self.own_seqs = 0

    def act(self, kind, origin, seq):
        del self.sent[:]
        if kind == "discover":
            self.router._start_discovery(f"far{self.own_seqs}")
        else:
            self.router.handle_control(LINK_SOURCE, self.rreq(origin, seq))
        return list(self.sent), dict(self.agent.dropped)

    #: The path each origin's requests arrive with: "b"'s have been through
    #: the hub already; the hub's own come back as if relayed by ``r``.
    PATHS = {"a": ["r"], "b": ["b", NODE], NODE: ["r"]}

    def rreq(self, origin, seq):
        return {"c": "rreq", "o": origin, "q": seq, "d": "far",
                "p": list(self.PATHS[origin])}

    def reference(self, kind, origin, seq):
        if kind == "discover":
            destination = f"far{self.own_seqs}"
            self.own_seqs += 1
            self.seen.add((NODE, self.own_seqs))
            return [(None, {"c": "rreq", "o": NODE, "q": self.own_seqs,
                            "d": destination, "p": [NODE]})], {}
        if (origin, seq) in self.seen:
            return [], {}
        self.seen.add((origin, seq))
        message = self.rreq(origin, seq)
        if NODE in message["p"]:
            return [], {}
        return [(None, {**message, "p": message["p"] + [NODE]})], {}


@settings(max_examples=200, deadline=None)
@given(steps=hearings(["a", "b", NODE], ["discover"]))
def test_dsr_request_table_agrees_with_a_set_of_pairs(steps):
    world = DsrWorld()
    for step in steps:
        assert world.act(*step) == world.reference(*step), step
    assert world.router.rreqs_sent == world.own_seqs


class DiffusionWorld:
    """A diffusion agent on the hub, subscribed to ``temp``; interests are
    heard for ``other``, so no gradient ever carries ``temp`` data away."""

    def __init__(self):
        fabric = SimFabric(topology.star(2, radius=40, radio_profile=IDEAL_RADIO))
        self.agent = agent = DataCentricAgent(fabric, NODE)
        self.events = []
        agent.endpoint.broadcast = lambda frame: self.events.append(
            ("broadcast", frame.message))
        agent.endpoint.send = lambda destination, frame: self.events.append(
            ("send", destination.node, frame.message))
        self.subscriber = lambda name, value, origin: self.events.append(
            ("deliver", value, origin))
        self.seen_interests, self.seen_data = set(), set()
        self.own_seqs = 0  # interests and data share the agent's one counter
        self.subscribed = False

    def act(self, kind, origin, seq):
        del self.events[:]
        agent = self.agent
        if kind == "subscribe":
            agent.subscribe("temp", self.subscriber, ttl=3)
        elif kind == "publish":
            agent.publish("temp", "mine")
        else:
            message = ({"c": "interest", "n": "other", "o": origin, "q": seq,
                        "h": 0, "t": 3} if kind == "interest" else
                       {"c": "data", "n": "temp", "o": origin, "q": seq,
                        "v": "theirs"})
            agent._on_message(LINK_SOURCE, WireFrame(message, BINARY))
        return list(self.events), agent.malformed_frames

    def reference(self, kind, origin, seq):
        if kind == "subscribe":
            self.own_seqs += 1
            self.seen_interests.add((NODE, self.own_seqs))
            self.subscribed = True
            return [("broadcast", {"c": "interest", "n": "temp", "o": NODE,
                                   "q": self.own_seqs, "h": 0, "t": 3})], 0
        if kind == "publish":
            self.own_seqs += 1
            self.seen_data.add((NODE, self.own_seqs))
            return [("deliver", "mine", NODE)] if self.subscribed else [], 0
        seen = self.seen_interests if kind == "interest" else self.seen_data
        if (origin, seq) in seen:
            return [], 0
        seen.add((origin, seq))
        if kind == "interest":
            return [("broadcast", {"c": "interest", "n": "other", "o": origin,
                                   "q": seq, "h": 1, "t": 2})], 0
        return [("deliver", "theirs", origin)] if self.subscribed else [], 0


@settings(max_examples=200, deadline=None)
@given(steps=hearings(["a", "b", NODE], ["subscribe", "publish"],
                      heard_kinds=("interest", "data")))
def test_diffusion_tables_agree_with_sets_of_pairs(steps):
    world = DiffusionWorld()
    for step in steps:
        assert world.act(*step) == world.reference(*step), step
