"""The interaction styles on the zero-copy frame path.

``transactions/`` and ``naming/`` send lazy :class:`WireFrame`\\ s and read
them back with ``try_decode_dict``. Three things follow and are pinned
here: a corrupt frame is a counted drop at every endpoint (never a raise
through the event loop); an application never holds the sender's own
container (the aliasing contract of ``wire_plain``); and no codec runs on
the simulated path, nor can an eager ``codec.encode(`` creep back in.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.interop.codec import BinaryCodec, get_codec
from repro.naming.locator import LocationClient, LocationServer
from repro.naming.names import LogicalName
from repro.obs.metrics import get_registry
from repro.transactions.agents import AgentHost, MobileAgent
from repro.transactions.messaging import MessageBroker, MessagingClient
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.workloads import ScenarioRun, parse_spec


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


class Stamper(MobileAgent):
    def visit(self, host):
        self.state.setdefault("seen", []).append(host.address.node)


# Each builder returns (endpoint under test, wrong-field-type messages,
# probe): the probe drives one real exchange through the endpoint and
# returns True if it still serves. ``"$rid"`` in a message stands for a
# request id the endpoint is really waiting on.


def _pubsub_broker(fabric):
    broker = PubSubBroker(fabric.endpoint("hub", "ps"))
    client = PubSubClient(fabric.endpoint("c", "ps"), Address("hub", "ps"))

    def probe():
        got = []
        client.subscribe("a.*", lambda topic, event: got.append(event))
        fabric.run()
        client.publish("a.b", 1)
        fabric.run()
        return got == [1]

    return broker, [
        {"op": "sub", "rid": "r", "pattern": 7},
        {"op": "sub", "rid": "r", "pattern": "a", "filters": "level"},
        {"op": "sub", "rid": "r", "pattern": "a",
         "filters": [{"name": "level", "op": "~", "value": "x"}]},
        {"op": "sub", "rid": "r", "pattern": "a",
         "filters": [{"name": "level", "op": "="}]},
        {"op": "unsub"},
        {"op": "pub", "topic": "a.b"},
        {"op": "pub", "topic": ["a"], "event": 1},
    ], probe


def _pubsub_client(fabric):
    PubSubBroker(fabric.endpoint("hub", "ps"))
    client = PubSubClient(fabric.endpoint("c", "ps"), Address("hub", "ps"))
    got = []
    client.subscribe("a.*", lambda topic, event: got.append(event))
    fabric.run()

    def probe():
        client.publish("a.b", 1)
        fabric.run()
        return got == [1]

    return client, [
        {"op": "event", "topic": "a.b", "pattern": "a.*"},
        {"op": "event", "topic": 3, "event": 1, "pattern": "a.*"},
        {"op": "event", "topic": "a.b", "event": 1, "pattern": ["a.*"]},
        {"op": "sub_ack", "rid": ["r"]},
    ], probe


def _message_broker(fabric):
    broker = MessageBroker(fabric.endpoint("hub", "mq"))
    client = MessagingClient(fabric.endpoint("c", "mq"), Address("hub", "mq"))

    def probe():
        got = []
        client.subscribe("jobs", got.append)
        client.put("jobs", {"n": 1})
        fabric.run()
        return got == [{"n": 1}]

    return broker, [
        {"op": "put", "queue": 5, "body": 1},
        {"op": "put", "queue": "jobs"},
        {"op": "subscribe", "rid": "r"},
        {"op": "ack", "mid": ["m"]},
    ], probe


def _messaging_client(fabric):
    MessageBroker(fabric.endpoint("hub", "mq"))
    client = MessagingClient(fabric.endpoint("c", "mq"), Address("hub", "mq"))
    got = []
    client.subscribe("jobs", got.append)
    fabric.run()

    def probe():
        client.put("jobs", "x")
        fabric.run()
        return got == ["x"]

    return client, [
        {"op": "deliver", "queue": "jobs", "mid": "m-0"},
        {"op": "deliver", "queue": 1, "mid": "m-0", "body": 1},
        {"op": "deliver", "queue": "jobs", "mid": ["m"], "body": 1},
        {"op": "put_ack", "rid": {"a": 1}},
    ], probe


def _object_host(fabric):
    host = SharedObjectHost(fabric.endpoint("hub", "so"))
    cache = SharedObjectCache(fabric.endpoint("c", "so"), Address("hub", "so"))

    def probe():
        cache.write("k", 1)
        fabric.run()
        return host.value("k") == 1

    return host, [
        {"op": "get", "rid": "r"},
        {"op": "put", "rid": "r", "key": "k"},
        {"op": "put", "rid": "r", "key": ["k"], "value": 1},
        {"op": "inv_ack", "wid": ["w"]},
    ], probe


def _object_cache(fabric):
    SharedObjectHost(fabric.endpoint("hub", "so"))
    cache = SharedObjectCache(fabric.endpoint("c", "so"), Address("hub", "so"))
    cache.write("k", 1)
    fabric.run()
    pending = cache.read("other")  # leaves a get in flight: "$rid"

    def probe():
        fabric.run()
        return pending.result() is None and cache.read("k").result() == 1

    return cache, [
        {"op": "invalidate", "key": "k"},
        {"op": "invalidate", "key": 1, "version": 9},
        {"op": "invalidate", "key": "k", "version": "9"},
        {"op": "got", "rid": ["r"], "value": 1, "version": 1},
        {"op": "got", "rid": "$rid", "value": 1, "version": "1"},
    ], probe


def _agent_host(fabric):
    host = AgentHost(fabric.endpoint("hub", "agents"))
    home = AgentHost(fabric.endpoint("c", "agents"))
    host.register(Stamper)
    home.register(Stamper)
    hop = {"op": "agent", "name": "Stamper", "state": {}, "itinerary": [],
           "home": "c:agents", "hops": 1}

    def probe():
        done = home.dispatch(Stamper(), [Address("hub", "agents")])
        fabric.run()
        return done.result() == {"seen": ["hub"]}

    return host, [
        {"op": "agent"},
        {**hop, "state": [1]},
        {**hop, "home": 5},
        {**hop, "home": ""},
        {**hop, "itinerary": "hub:agents"},
        {**hop, "itinerary": [7]},
        {**hop, "hops": "1"},
        {"op": "agent_done", "name": "Stamper", "state": 5},
    ], probe


def _location_server(fabric):
    server = LocationServer(fabric.endpoint("hub", "loc"))
    client = LocationClient(fabric.endpoint("c", "loc"), Address("hub", "loc"))

    def probe():
        name = LogicalName.parse("sensors/bp")
        client.bind(name, Address("n5", "svc"))
        listing = client.resolve_prefix(LogicalName.parse("sensors"))
        fabric.run()
        return listing.result() == {"sensors/bp": Address("n5", "svc")}

    return server, [
        {"op": "bind", "rid": "r", "name": "a", "address": 5},
        {"op": "bind", "rid": "r", "name": "/bad//name", "address": "n:p"},
        {"op": "bind", "rid": "r", "name": "a", "address": "n:p", "version": "2"},
        {"op": "resolve", "rid": "r"},
        {"op": "resolve_prefix", "rid": "r", "prefix": 7},
        {"op": "unbind", "rid": "r", "name": ["a"]},
    ], probe


def _location_client(fabric):
    LocationServer(fabric.endpoint("hub", "loc"))
    client = LocationClient(fabric.endpoint("c", "loc"), Address("hub", "loc"))
    client._request({"op": "noop"})  # unanswered by the server: "$rid"

    def probe():
        name = LogicalName.parse("sensors/bp")
        client.bind(name, Address("n5", "svc"))
        found = client.resolve(name)
        fabric.run()
        return found.result() == Address("n5", "svc")

    return client, [
        {"op": "resolve_ack", "rid": ["r"]},
        {"op": "resolve_ack", "rid": "$rid", "address": 5},
        {"op": "resolve_ack", "rid": "$rid", "address": ":port"},
        {"op": "resolve_prefix_ack", "rid": "$rid", "bindings": ["a"]},
        {"op": "resolve_prefix_ack", "rid": "$rid", "bindings": {"a": 5}},
    ], probe


ENDPOINTS = {
    "pubsub-broker": _pubsub_broker,
    "pubsub-client": _pubsub_client,
    "message-broker": _message_broker,
    "messaging-client": _messaging_client,
    "object-host": _object_host,
    "object-cache": _object_cache,
    "agent-host": _agent_host,
    "location-server": _location_server,
    "location-client": _location_client,
}


def _cases():
    for name, build in ENDPOINTS.items():
        for why in GARBAGE:
            yield pytest.param(build, why, id=f"{name}-{why}")
        _endpoint, wrong, _probe = build(InMemoryFabric())
        for index in range(len(wrong)):
            yield pytest.param(build, index, id=f"{name}-field-{index}")


class TestMalformedFrames:
    """One corrupt frame: ``malformed_frames += 1``, ``transport.malformed``
    for the node, nothing sent back, and the endpoint keeps serving."""

    @pytest.mark.parametrize("build,which", list(_cases()))
    def test_dropped_counted_and_still_serving(self, build, which):
        get_registry().reset()
        fabric = InMemoryFabric(latency_s=0.01)
        endpoint, wrong, probe = build(fabric)
        if isinstance(which, str):
            payload = GARBAGE[which]
        else:
            message = dict(wrong[which])
            if message.get("rid") == "$rid":
                (message["rid"],) = endpoint._pending
            payload = _frame(message)
        raw = fabric.endpoint("raw", "x")
        answers = []
        raw.set_receiver(lambda _source, frame: answers.append(frame))
        raw.send(endpoint.transport.local_address, payload)
        fabric.run()
        assert endpoint.malformed_frames == 1
        assert get_registry().counter_total("transport.malformed") == 1
        assert answers == []
        assert probe()

    def test_object_host_ignores_a_standalone_watch(self):
        """Watch registration rides inside get/put; a bare ``watch`` frame
        is an unknown op: not malformed, not answered, nothing registered."""
        fabric = InMemoryFabric(latency_s=0.01)
        host, _wrong, probe = _object_host(fabric)
        raw = fabric.endpoint("raw", "x")
        answers = []
        raw.set_receiver(lambda _source, frame: answers.append(frame))
        raw.send(host.transport.local_address, _frame({"op": "watch"}))
        raw.send(host.transport.local_address,
                 _frame({"op": "watch", "key": "k"}))
        fabric.run()
        assert host.malformed_frames == 0
        assert probe()
        assert answers == []  # the probe's put invalidated nobody at "raw"


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
        broker = MessageBroker(fabric.endpoint("hub", "mq"),
                               redelivery_timeout_s=1.0)
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
        get_registry().reset()
        card = ScenarioRun(parse_spec(spec, seed=0)).run()
        assert card["goodput"]["ok"] > 0
        assert calls == {"encode": 0, "decode": 0}
        registry = get_registry()
        assert registry.counter_total("transport.frames.materialized") == 0
        assert registry.counter_total("transport.frames.passthrough") > 0
        assert (registry.counter_total("codec.encode_skipped")
                == registry.counter_total("transport.frames.passthrough"))


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
