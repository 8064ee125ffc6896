"""Every message endpoint on the zero-copy frame path.

All 19 protocol endpoints send lazy :class:`WireFrame`\\ s and receive
through :class:`repro.transport.endpoint.MessageEndpoint`. Three things
follow and are pinned here: a frame the endpoint's ``OPS`` table does not
accept is a counted drop — one fuzz property over every endpoint class,
with the cases earlier PRs wrote by hand kept as explicit examples — and
never a raise through the event loop; an application never holds the
sender's own container (the aliasing contract of ``wire_plain``); and no
codec runs on the simulated path, nor can an eager ``codec.encode(`` creep
back in.
"""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.interop.codec import BinaryCodec, get_codec
from repro.interop.frames import WireFrame, try_decode_dict
from repro.transactions.agents import AgentHost
from repro.transactions.messaging import MessageBroker, MessagingClient
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.endpoint import MessageEndpoint, optional
from repro.transport.inmemory import InMemoryFabric
from repro.workloads import ScenarioRun, parse_spec
from tests.endpoint_rigs import DESC, QUERY, RIGS, Stamper

BUILDERS = {build.__name__: (cls, build)
            for cls, builds in RIGS.items() for build in builds}


def _frame(message, cut=None):
    return bytes(get_codec("binary").encode(message))[:cut]


#: Not a message at all, whatever the endpoint: what chaos corruption or a
#: buggy peer puts on the wire.
GARBAGE = {
    "truncated": _frame({"op": "put", "queue": "q", "body": [1, 2, 3]}, cut=-3),
    "empty": b"",
    "unknown-tag": b"\xff\x00",
    "non-dict": _frame(7),
}

_HOP = {"op": "agent", "name": "Stamper", "state": {}, "itinerary": [],
        "home": "c:agents", "hops": 1}

#: rig -> decodable frames its endpoint must reject, written out by hand:
#: the wrong-field-type lists PRs 12-13 grew endpoint by endpoint.
#: ``"$rid"`` stands for a request id the endpoint is really waiting on.
WRONG = {
    "pubsub_broker": [
        {"op": "sub", "rid": "r", "pattern": 7},
        {"op": "sub", "rid": "r", "pattern": "a", "filters": "level"},
        {"op": "sub", "rid": "r", "pattern": "a",
         "filters": [{"name": "level", "op": "~", "value": "x"}]},
        {"op": "sub", "rid": "r", "pattern": "a",
         "filters": [{"name": "level", "op": "="}]},
        {"op": "unsub"},
        {"op": "pub", "topic": "a.b"},
        {"op": "pub", "topic": ["a"], "event": 1},
    ],
    "pubsub_client": [
        {"op": "event", "topic": "a.b", "pattern": "a.*"},
        {"op": "event", "topic": 3, "event": 1, "pattern": "a.*"},
        {"op": "event", "topic": "a.b", "event": 1, "pattern": ["a.*"]},
        {"op": "sub_ack", "rid": ["r"]},
    ],
    "message_broker": [
        {"op": "put", "queue": 5, "body": 1},
        {"op": "put", "queue": "jobs"},
        {"op": "subscribe", "rid": "r"},
        {"op": "ack", "mid": ["m"]},
    ],
    "messaging_client": [
        {"op": "deliver", "queue": "jobs", "mid": "m-0"},
        {"op": "deliver", "queue": 1, "mid": "m-0", "body": 1},
        {"op": "deliver", "queue": "jobs", "mid": ["m"], "body": 1},
        {"op": "put_ack", "rid": {"a": 1}},
    ],
    "object_host": [
        {"op": "get", "rid": "r"},
        {"op": "put", "rid": "r", "key": "k"},
        {"op": "put", "rid": "r", "key": ["k"], "value": 1},
        {"op": "inv_ack", "wid": ["w"]},
    ],
    "object_cache": [
        {"op": "invalidate", "key": "k"},
        {"op": "invalidate", "key": 1, "version": 9},
        {"op": "invalidate", "key": "k", "version": "9"},
        {"op": "got", "rid": ["r"], "value": 1, "version": 1},
        {"op": "got", "rid": "$rid", "value": 1, "version": "1"},
    ],
    "agent_host": [
        {"op": "agent"},
        {**_HOP, "state": [1]},
        {**_HOP, "home": 5},
        {**_HOP, "home": ""},
        {**_HOP, "itinerary": "hub:agents"},
        {**_HOP, "itinerary": [7]},
        {**_HOP, "hops": "1"},
        {"op": "agent_done", "name": "Stamper", "state": 5},
    ],
    "location_server": [
        {"op": "bind", "rid": "r", "name": "a", "address": 5},
        {"op": "bind", "rid": "r", "name": "/bad//name", "address": "n:p"},
        {"op": "bind", "rid": "r", "name": "a", "address": "n:p", "version": "2"},
        {"op": "resolve", "rid": "r"},
        {"op": "resolve_prefix", "rid": "r", "prefix": 7},
        {"op": "unbind", "rid": "r", "name": ["a"]},
    ],
    "location_client": [
        {"op": "resolve_ack", "rid": ["r"]},
        {"op": "resolve_ack", "rid": "$rid", "address": 5},
        {"op": "resolve_ack", "rid": "$rid", "address": ":port"},
        {"op": "resolve_prefix_ack", "rid": "$rid", "bindings": ["a"]},
        {"op": "resolve_prefix_ack", "rid": "$rid", "bindings": {"a": 5}},
    ],
}

_GONE = object()  # a patch value: the field is removed
_ENTRY = {"i": 3, "t": 1, "r": "x-3", "n": "set", "a": ["k", 3]}
_DESC, _QUERY = DESC.to_dict(), QUERY.to_dict()


def _constraint(**changed):
    return {**_QUERY, "constraints": [
        {"name": "floor", "op": "contains", "value": "2", **changed}]}


#: Well-typed at the top, wrong one level down: what a parser has to catch,
#: or matching, ranking and caching raise on it later.
_BAD_DESCS = [
    {**_DESC, "service_id": ["x"]}, {**_DESC, "service_id": 7},
    {**_DESC, "provider": None}, {**_DESC, "attributes": {"floor": 5}},
    {**_DESC, "attributes": ["floor"]}, {**_DESC, "position": "ab"},
    {**_DESC, "position": [1.0, "y"]}, {**_DESC, "position": [1.0]},
    {**_DESC, "interface": 5},
    {**_DESC, "qos": {**_DESC["qos"], "expected_latency_s": 10**400}},
    {**_DESC, "qos": {**_DESC["qos"], "bandwidth_bps": "fast"}},
    {**_DESC, "qos": {**_DESC["qos"], "properties": {"var:hr": 0.8}}},
]
_BAD_QUERIES = [
    _constraint(value=5), _constraint(name=["floor"]),
    _constraint(op=">=", value=[1]), _constraint(op={"x": 1}),
    {**_QUERY, "constraints": "floor"}, {**_QUERY, "constraints": [5]},
    {**_QUERY, "position": "ab"}, {**_QUERY, "position": [10**400, 0]},
    {**_QUERY, "max_results": 1.5}, {**_QUERY, "service_type": 7},
    {**_QUERY, "consumer": {"max_latency_s": "1"}},
    {**_QUERY, "consumer": [0.5]},
]

#: rig -> ``(op, field, value)`` patches of the rig's well-formed sample:
#: decodable frames that raised through the event loop, or were coerced or
#: ignored uncounted, before the endpoints declared their field types.
REGRESSIONS = {
    "replica_backup": [
        ("append", "term", "1"), ("append", "commit", 2.0),
        ("append", "prev", None), ("append", "prev_term", "1"),
        ("append", "entries", 5), ("append", "entries", [5]),
        ("append", "from", "3"), ("append", "repair", 1),
        ("append", "repair", True),  # a repair that does not say from where
        *[("append", "entries", [{k: v for k, v in _ENTRY.items() if k != gone}])
          for gone in _ENTRY],
        ("append", "entries", [{**_ENTRY, "i": "x"}]),
        ("append", "entries", [{**_ENTRY, "a": 5}]),
        ("append", "entries", [{**_ENTRY, "i": float("inf")}]),
        ("append", "entries", [{**_ENTRY, "t": "1"}]),
        ("append", "entries", [{**_ENTRY, "r": 5}]),
        ("snapshot", "term", "1"), ("snapshot", "index", "4"),
        ("snapshot", "sterm", None), ("snapshot", "commit", [4]),
        ("snapshot", "state", _GONE),
        ("fenced", "term", "x"), ("elect", "term", "x"),
        ("elect_ok", "term", [2]), ("coord", "term", "1"),
        ("coord", "leader", 2), ("sync_req", "term", "x"),
        ("sync_req", "from_index", "1"), ("sync", "term", "2"),
        ("sync", "commit", "2"), ("sync", "entries", {"i": 1}),
        ("sync", "entries", [{"i": 1}]),
        ("cmd", "rid", 9), ("cmd", "name", ["get"]), ("cmd", "args", 5),
        ("cmd", "min_index", "1"),
    ],
    "replica_primary": [
        ("append_ack", "term", "1"), ("append_ack", "index", "2"),
        ("append_ack", "index", _GONE), ("need_catchup", "from", "1"),
        ("need_catchup", "from", [1]), ("cmd", "args", 5),
    ],
    "heartbeat_detector": [
        ("hb", "from", ["peer"]), ("hb", "from", {"n": 1}), ("hb", "from", 7),
        ("hb", "seq", "1"),
    ],
    "data_centric_agent": [
        *[("interest", field, _GONE) for field in "oqnht"],
        ("interest", "o", ["leaf2"]), ("interest", "h", "0"),
        ("data", "o", {"n": 1}), ("data", "q", _GONE), ("data", "n", _GONE),
        ("data", "v", _GONE),
    ],
    "rpc_endpoint": [
        ("result", "rid", ["r"]), ("error", "rid", {"r": 1}),
        ("call", "params", 5), ("notify", "method", 7),
    ],
    "registry_server": [
        *[("register", "desc", desc) for desc in _BAD_DESCS],
        *[("lookup", "query", query) for query in _BAD_QUERIES],
    ],
    "registry_client": [
        ("lookup_ack", "results", [_DESC, _BAD_DESCS[0]]),
        ("lookup_ack", "results", [_BAD_DESCS[5]]),
    ],
    "distributed_discovery": [
        *[("advert", "descs", [_DESC, desc]) for desc in _BAD_DESCS],
        *[("query", "query", query) for query in _BAD_QUERIES],
        ("reply", "results", [_BAD_DESCS[0]]),
        ("reply", "results", [_DESC, _BAD_DESCS[3]]),
        ("reply", "results", [5]),
    ],
    "pubsub_broker": [
        ("sub", "filters", [{"name": "level", "op": "=", "value": 3}]),
        ("sub", "filters", [{"name": ["level"], "op": "=", "value": "3"}]),
    ],
}


def pinned(name):
    """``label -> rig -> frame bytes`` for one rig's explicit examples."""
    cases = {why: (lambda rig, raw=raw: raw) for why, raw in GARBAGE.items()}
    for index, message in enumerate(WRONG.get(name, ())):
        cases[f"field-{index}"] = (
            lambda rig, message=message: _frame(rig.resolve(message)))
    for index, patch in enumerate(REGRESSIONS.get(name, ())):
        cases[f"{patch[0]}-{patch[1]}-{index}"] = (
            lambda rig, patch=patch: _frame(_patched(rig, *patch)))
    return cases


def _patched(rig, op, field, value):
    message = rig.message(op)
    if value is _GONE:
        message.pop(field, None)
    else:
        message[field] = value
    return message


REJECT, IGNORE, PARSERS_DECIDE = "reject", "ignore", "parsers decide"


def verdict(cls, frame):
    """What the declaration says of a frame — worked out from ``OPS`` as
    written, not from the compiled table the endpoint reads."""
    message = try_decode_dict(get_codec("binary"), frame)
    op = message.get(cls.OP_FIELD) if message is not None else None
    if not isinstance(op, str):
        return REJECT
    if op not in cls.OPS:
        return IGNORE
    for field, spec in cls.OPS[op][0].items():
        required = not isinstance(spec, optional)
        spec = spec if required else spec.spec
        typed = isinstance(spec, (type, tuple))
        if field not in message or (message[field] is None and not typed):
            if required:
                return REJECT
        elif typed and not isinstance(message[field], spec):
            return REJECT
    return PARSERS_DECIDE


def deliver(rig, frame):
    """Hand ``frame`` to the rig's endpoint as its transport would; returns
    how many frames it has now counted malformed. Nothing may escape."""
    endpoint = rig.endpoint
    endpoint._on_message(rig.source, frame)
    return endpoint.malformed_frames


def check(name, make_frame):
    """One frame against one fresh rig; returns 1 if it was rejected, else
    0. Rejected if the table says so, counted exactly once, nothing sent
    back, counters and stores unchanged, and the endpoint still serving."""
    cls, build = BUILDERS[name]
    rig = build()
    frame = make_frame(rig)
    expected = verdict(cls, frame)
    before = rig.state()
    counted = deliver(rig, frame)
    assert counted <= 1
    if expected is not PARSERS_DECIDE:
        assert counted == (expected is REJECT)
    if counted or expected is IGNORE:
        assert rig.state() == before
        assert rig.probe()
    else:  # accepted: whatever it set going must not raise later either
        rig.advance(3.0)
    return counted


class TestMalformedFrames:
    """One corrupt frame: ``malformed_frames += 1``, nothing sent back, and
    the endpoint keeps serving."""

    @pytest.mark.parametrize("name,label", [
        pytest.param(name, label, id=f"{name.replace('_', '-')}-{label}")
        for name in BUILDERS for label in pinned(name)])
    def test_dropped_counted_and_still_serving(self, name, label):
        assert check(name, pinned(name)[label]) == 1

    def test_object_host_ignores_a_standalone_watch(self):
        """Watch registration rides inside get/put; a bare ``watch`` frame
        is an unknown op: not malformed, not answered, nothing registered."""
        for message in ({"op": "watch"}, {"op": "watch", "key": "k"}):
            assert check("object_host", lambda rig: _frame(message)) == 0

    def test_registry_client_holds_a_grant_to_the_servers_lease_bounds(self):
        """Well-typed and absurd: a granted lease of 0 would renew in a
        loop that never lets virtual time move, an int beyond any float
        raised from the renewal timer's arithmetic."""
        for lease in (0, -5.0, 10**400, float("nan")):
            rig = BUILDERS["registry_client"][1]()
            rig.endpoint._on_message(rig.source, _frame(
                {**rig.message("register_ack"), "lease_s": lease}))
            (granted,) = rig.endpoint._auto_renew.values()
            assert 0.1 <= granted <= 300.0
            rig.advance(1.0)

    def test_a_reply_of_another_op_does_not_settle_the_request(self):
        """``lookup_ack`` settles with parsed descriptions, ``register_ack``
        with the message: either handed to the other's callback raised.
        A reply names its request by rid *and* op."""
        rig = BUILDERS["registry_client"][1]()
        for op in ("register_ack", "lookup_ack"):
            (other,) = {"register_ack", "lookup_ack"} - {op}
            crossed = {**rig.message(op), "rid": rig.rids[other]}
            before = rig.state()
            assert deliver(rig, _frame(crossed)) == 0
            assert rig.state() == before

    def test_an_append_is_a_repair_only_if_it_says_so(self):
        """``repair`` is the flag, ``from`` its argument: an append that
        merely carries a ``from`` is an append."""
        _cls, build = BUILDERS["replica_backup"]
        for repair, grows_to in (({}, 3), ({"repair": True}, 2)):
            rig = build()
            message = {**rig.message("append"), "from": 9, **repair}
            assert deliver(rig, _frame(message)) == 0
            # from 9 is past the log's end: a repair asks to catch up instead
            assert rig.endpoint.log.last_index == grows_to

    def test_a_closed_replica_is_off_its_transport(self):
        """Closed means silent for every op and for garbage: nothing is
        decoded, counted, or given a service-time slot."""
        rig = BUILDERS["replica_primary"][1]()
        rig.endpoint.close()
        assert rig.endpoint.transport._receiver is None

    def test_replica_ignores_group_internal_ops_from_strangers(self):
        """Only ``cmd`` is open to everyone: a well-formed ``append`` or
        ``coord`` from a node outside the group is gated out, uncounted."""
        cls, build = BUILDERS["replica_backup"]
        for op in sorted(set(cls.OPS) - {"cmd"}):
            rig = build()
            before = rig.state()
            rig.endpoint._on_message(Address("raw", "g"), _frame(rig.message(op)))
            assert rig.endpoint.malformed_frames == 0
            assert rig.state() == before, op


class TestEndpointRegistry:
    """The fuzz reaches every endpoint there is."""

    def test_every_endpoint_class_has_a_rig_with_a_sample_per_op(self):
        declared = re.compile(r"^class (\w+)\(MessageEndpoint\):", re.M)
        classes = {name for path in Path(repro.__file__).parent.rglob("*.py")
                   for name in declared.findall(path.read_text())}
        assert classes == {cls.__name__ for cls in RIGS}
        assert len(classes) == 19
        for name, (cls, build) in BUILDERS.items():
            samples = build().samples
            assert set(samples) == set(cls.OPS), name
            for op in samples:  # well-formed: accepted as it stands
                assert check(name, lambda rig: _frame(rig.message(op))) == 0, (
                    name, op)

    def test_whoever_receives_with_on_message_is_a_message_endpoint(self):
        package = Path(repro.__file__).parent
        receivers = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if "set_receiver(self._on_message)" in path.read_text()}
        assert receivers == {"transport/endpoint.py"}

    def test_a_table_naming_no_method_fails_at_class_creation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="_on_nothing"):
            type("Broken", (MessageEndpoint,),
                 {"OPS": {"x": ({"rid": str}, "_on_nothing")}})
        with pytest.raises(ConfigurationError, match="no type"):
            type("Broken", (MessageEndpoint,),
                 {"OPS": {"x": ({"rid": "str"}, "_send")}})


INDEX = st.integers(0, 10**6)  # taken modulo what the rig's class offers
VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.floats()
    | st.sampled_from([10**400, -10**400])  # ints no float can hold
    | st.text(max_size=4) | st.binary(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
#: How a frame is derived from a rig's samples and its class's table.
PLANS = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=48)),
    st.tuples(st.just("not-a-dict"), VALUE.filter(
        lambda value: not isinstance(value, dict))),
    st.tuples(st.sampled_from(["truncate", "flip", "drop", "replay",
                               "expired"]), INDEX, INDEX),
    st.tuples(st.sampled_from(["op", "set"]), INDEX, INDEX, VALUE),
    st.tuples(st.just("inside"), INDEX, INDEX, VALUE | st.just(_GONE),
              st.lists(INDEX, min_size=1, max_size=4)),
)


def planted(value, path, seed):
    """A copy of ``value`` with ``seed`` put where ``path`` leads (each step
    taken modulo what that level offers; ``_GONE`` removes what is there):
    inside a field, where only its parser looks."""
    if not path or not isinstance(value, (dict, list)) or not value:
        return seed
    keys = sorted(value) if isinstance(value, dict) else range(len(value))
    chosen = keys[path[0] % len(keys)]
    items = {key: planted(value[key], path[1:], seed) if key == chosen
             else value[key] for key in keys}
    kept = {key: item for key, item in items.items() if item is not _GONE}
    return kept if isinstance(value, dict) else list(kept.values())


def derive(rig, cls, plan):
    """The frame ``plan`` describes, for this rig."""
    kind = plan[0]
    if kind == "bytes":
        return plan[1]
    if kind == "not-a-dict":
        return _frame(plan[1])
    ops = sorted(rig.samples)
    op = ops[plan[1] % len(ops)]
    message = rig.message(op)
    fields = list(cls.OPS[op][0])
    field = fields[plan[2] % len(fields)]
    if kind == "op":  # no string, unhashable, or a string nobody declared
        message[cls.OP_FIELD] = plan[3]
    elif kind == "drop":
        message.pop(field, None)
    elif kind == "set":  # wrongly typed, unhashable, or by luck still right
        message[field] = plan[3]
    elif kind == "inside" and field in message:
        message[field] = planted(message[field], plan[4], plan[3])
        if message[field] is _GONE:
            del message[field]
    raw = _frame(message)
    if kind == "truncate":
        return raw[:plan[2] % len(raw)]
    if kind == "flip":
        bit = plan[2] % (8 * len(raw))
        return raw[:bit // 8] + bytes([raw[bit // 8] ^ 1 << bit % 8]) \
            + raw[bit // 8 + 1:]
    return raw


def _with_pinned_examples(test):
    for name in BUILDERS:
        for label in pinned(name):
            test = example(name=name, plan=("pinned", label))(test)
    return test


@_with_pinned_examples
@settings(deadline=None)  # an accepted frame is followed by 3 s of a live world
@given(name=st.sampled_from(sorted(BUILDERS)), plan=PLANS)
def test_no_frame_gets_past_the_op_table(name, plan):
    """Undecodable bytes, a truncation, a bit flip, a non-dict, a non-string
    or unhashable op, each declared field missing / wrongly typed /
    unhashable — at the top or inside what a parser reads — a replayed rid,
    a reply after its request expired: nothing escapes ``_on_message``, nor
    the timers an accepted frame leaves behind; what the table rejects is
    counted once, in ``malformed_frames``, and leaves nothing sent, no counter or store changed and the endpoint
    serving."""
    cls, build = BUILDERS[name]
    kind = plan[0]
    if kind == "pinned":
        assert check(name, pinned(name)[plan[1]]) == 1
    elif kind in ("replay", "expired"):
        rig = build()
        frame = derive(rig, cls, plan)
        if (kind == "expired" and rig.expires_s is not None
                and try_decode_dict(rig.endpoint.codec, frame).get("rid")
                in rig.awaited()):
            rig.advance(rig.expires_s)  # the requests give up first
            assert not rig.awaited() & set(rig.endpoint._pending)
            before = rig.state()
            assert deliver(rig, frame) == 0  # too late: dropped, uncounted
            assert rig.state() == before
        else:
            assert deliver(rig, frame) == 0
            assert deliver(rig, frame) == 0  # again: the same, or ignored
    else:
        check(name, lambda rig: derive(rig, cls, plan))


class TestAliasingContract:
    """By-reference delivery must not hand an application the sender's own
    container: what arrives is what bytes on a wire would have produced."""

    def test_rpc_result_is_not_the_handlers_state(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = RpcEndpoint(fabric.endpoint("s", "rpc"))
        client = RpcEndpoint(fabric.endpoint("c", "rpc"))
        state = {"items": [1, 2], "pair": (3, 4)}
        server.expose("peek", lambda: state)
        first = client.call(Address("s", "rpc"), "peek")
        fabric.run()
        assert first.result() == {"items": [1, 2], "pair": [3, 4]}
        first.result()["items"].append("mutated")
        first.result()["pair"].append("mutated")
        assert state == {"items": [1, 2], "pair": (3, 4)}
        second = client.call(Address("s", "rpc"), "peek")
        fabric.run()
        assert second.result() == {"items": [1, 2], "pair": [3, 4]}

    def test_rpc_tuple_result_arrives_as_list(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = RpcEndpoint(fabric.endpoint("s", "rpc"))
        client = RpcEndpoint(fabric.endpoint("c", "rpc"))
        server.expose("pair", lambda: (1, (2, 3)))
        result = client.call(Address("s", "rpc"), "pair")
        fabric.run()
        assert result.result() == [1, [2, 3]]
        assert type(result.result()) is list

    def test_rpc_handler_cannot_mutate_the_callers_params(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = RpcEndpoint(fabric.endpoint("s", "rpc"))
        client = RpcEndpoint(fabric.endpoint("c", "rpc"))
        server.expose("drain", lambda items: [items.pop() for _ in list(items)])
        mine = [1, 2, 3]
        drained = client.call(Address("s", "rpc"), "drain", {"items": mine})
        fabric.run()
        assert drained.result() == [3, 2, 1]
        assert mine == [1, 2, 3]

    def test_subscribers_of_one_event_cannot_see_each_others_mutation(self):
        fabric = InMemoryFabric(latency_s=0.01)
        PubSubBroker(fabric.endpoint("hub", "ps"))
        publisher = PubSubClient(fabric.endpoint("p", "ps"), Address("hub", "ps"))
        seen = []

        def scribble(topic, event):
            seen.append(dict(event, tags=list(event["tags"])))
            event["tags"].append("mutated")
            event["level"] = "mutated"

        for node in ("s1", "s2", "s3"):
            PubSubClient(fabric.endpoint(node, "ps"),
                         Address("hub", "ps")).subscribe("alerts.#", scribble)
        fabric.run()
        event = {"level": 3, "tags": ["fire"]}
        publisher.publish("alerts.fire", event)
        fabric.run()
        assert seen == [{"level": 3, "tags": ["fire"]}] * 3
        assert event == {"level": 3, "tags": ["fire"]}

    def test_queue_body_survives_producer_and_consumer_mutation(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = MessageBroker(fabric.endpoint("hub", "mq"))
        producer = MessagingClient(fabric.endpoint("p", "mq"), Address("hub", "mq"))
        consumer = MessagingClient(fabric.endpoint("c", "mq"), Address("hub", "mq"))
        body = {"job": [1, 2]}
        producer.put("jobs", body)
        fabric.run()
        body["job"].append("mutated after put")
        # Lose the first ack, so the broker delivers its kept body again.
        send, lost = consumer.transport.send, []
        consumer.transport.send = lambda destination, frame: (
            lost.append(frame) if frame.message.get("op") == "ack" and not lost
            else send(destination, frame))
        got = []

        def consume(received):
            got.append(dict(received, job=list(received["job"])))
            received["job"].append("mutated by consumer")

        consumer.subscribe("jobs", consume)
        fabric.run()
        assert broker.redeliveries == 1
        assert got == [{"job": [1, 2]}, {"job": [1, 2]}]

    def test_shared_object_value_is_private_to_each_holder(self):
        fabric = InMemoryFabric(latency_s=0.01)
        host = SharedObjectHost(fabric.endpoint("hub", "so"))
        writer = SharedObjectCache(fabric.endpoint("w", "so"), Address("hub", "so"))
        reader = SharedObjectCache(fabric.endpoint("r", "so"), Address("hub", "so"))
        value = {"limits": [1, 2]}
        writer.write("cfg", value)
        fabric.run()
        value["limits"].append("mutated by writer")
        assert host.value("cfg") == {"limits": [1, 2]}
        read = reader.read("cfg")
        fabric.run()
        read.result()["limits"].append("mutated by reader")
        assert host.value("cfg") == {"limits": [1, 2]}

    def test_tuple_space_keeps_its_own_nested_fields(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = TupleSpaceServer(fabric.endpoint("hub", "ts"))
        client = TupleSpaceClient(fabric.endpoint("c", "ts"), Address("hub", "ts"))
        nested = [1, 2]
        client.out("k", nested, (3, 4))
        fabric.run()
        nested.append("mutated after out")
        read = client.rd("k", None, [3, 4])  # a nested tuple matches as a list
        fabric.run()
        assert read.result() == ["k", [1, 2], [3, 4]]
        read.result()[1].append("mutated by reader")
        assert server.snapshot() == [["k", [1, 2], [3, 4]]]

    def test_agent_state_is_not_shared_with_the_dispatcher(self):
        fabric = InMemoryFabric(latency_s=0.01)
        home = AgentHost(fabric.endpoint("home", "agents"))
        stop = AgentHost(fabric.endpoint("stop", "agents"))
        home.register(Stamper)
        stop.register(Stamper)
        agent = Stamper({"seen": ["start"]})
        done = home.dispatch(agent, [Address("stop", "agents")])
        fabric.run()
        assert done.result() == {"seen": ["start", "stop"]}
        assert agent.state == {"seen": ["start"]}


class TestNoCodecOnTheSimulatedPath:
    """With every layer on frames, a whole scenario neither encodes nor
    decodes: sizes come from ``encoded_size`` and dicts pass by reference."""

    @pytest.mark.parametrize("spec", ["api_rpc:flash_crowd", "chat_fanout:diurnal"])
    def test_scenario_runs_without_encode_or_decode(self, spec, monkeypatch):
        calls = {"encode": 0, "decode": 0}
        for name in calls:
            original = getattr(BinaryCodec, name)

            def counted(self, value, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, value)

            monkeypatch.setattr(BinaryCodec, name, counted)
        materialized = WireFrame.materialized
        card = ScenarioRun(parse_spec(spec, seed=0)).run()
        assert card["goodput"]["ok"] > 0
        assert calls == {"encode": 0, "decode": 0}
        assert WireFrame.materialized == materialized


def test_no_eager_codec_call_in_transactions_or_naming():
    """Every send is ``WireFrame(message, codec)`` and every receive
    ``try_decode_dict``; an eager ``codec.encode(`` / ``codec.decode(``
    would put the per-hop marshalling cost back."""
    package = Path(repro.__file__).parent
    eager = re.compile(r"codec\.(encode|decode)\(")
    hits = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for directory in ("transactions", "naming")
        for path in sorted((package / directory).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if eager.search(line)
    ]
    assert hits == []
