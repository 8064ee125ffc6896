"""Tests for publish/subscribe, tuple space, and shared objects."""

import pytest

from repro.discovery.matching import AttributeConstraint
from repro.interop.codec import get_codec
from repro.interop.frames import try_decode_dict
from repro.transactions.pubsub import PubSubBroker, PubSubClient, topic_matches
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer, template_matches
from repro.transport.inmemory import InMemoryFabric


class TestTopicMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("a.b.c", "a.b.c", True),
            ("a.b.c", "a.b.d", False),
            ("a.*.c", "a.x.c", True),
            ("a.*.c", "a.x.y.c", False),
            ("a.#", "a.x.y.z", True),
            ("a.#", "a", True),  # '#' matches zero or more trailing segments
            ("#", "anything.at.all", True),
            ("a.b", "a.b.c", False),
            ("a.b.c", "a.b", False),
            ("", "a", False),
        ],
    )
    def test_patterns(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected


class TestPubSub:
    def setup_pair(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = PubSubBroker(fabric.endpoint("broker", "ps"))
        publisher = PubSubClient(fabric.endpoint("pub", "ps"),
                                 broker.transport.local_address)
        subscriber = PubSubClient(fabric.endpoint("sub", "ps"),
                                  broker.transport.local_address)
        return fabric, broker, publisher, subscriber

    def test_topic_delivery(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        received = []
        subscriber.subscribe("alerts.*", lambda t, e: received.append((t, e)))
        fabric.run()
        publisher.publish("alerts.fire", {"level": 3})
        publisher.publish("status.ok", {})
        fabric.run()
        assert received == [("alerts.fire", {"level": 3})]

    def test_content_filters(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        received = []
        subscriber.subscribe(
            "vitals.#", lambda t, e: received.append(e),
            filters=[AttributeConstraint("level", "=", "high")],
        )
        fabric.run()
        publisher.publish("vitals.bp", {"level": "high"})
        publisher.publish("vitals.bp", {"level": "low"})
        fabric.run()
        assert received == [{"level": "high"}]

    def test_unsubscribe_stops_delivery(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        received = []
        subscriber.subscribe("t.x", lambda t, e: received.append(e))
        fabric.run()
        del subscriber._handlers["t.x"]
        subscriber._send(subscriber.broker_address,
                         {"op": "unsub", "pattern": "t.x"})
        fabric.run()
        publisher.publish("t.x", 1)
        fabric.run()
        assert received == []
        assert broker._subscriptions == []

    def test_multiple_subscribers_fan_out(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = PubSubBroker(fabric.endpoint("broker", "ps"))
        publisher = PubSubClient(fabric.endpoint("pub", "ps"),
                                 broker.transport.local_address)
        received = []
        for i in range(3):
            client = PubSubClient(fabric.endpoint(f"s{i}", "ps"),
                                  broker.transport.local_address)
            client.subscribe("t", lambda topic, event, i=i: received.append(i))
        fabric.run()
        publisher.publish("t", "x")
        fabric.run()
        assert sorted(received) == [0, 1, 2]
        assert broker.events_delivered == 3

    def test_subscribe_ack(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        promise = subscriber.subscribe("a.b", lambda t, e: None)
        fabric.run()
        assert promise.fulfilled


class TestTemplateMatching:
    @pytest.mark.parametrize(
        "template,candidate,expected",
        [
            (["a", 1], ["a", 1], True),
            (["a", 1], ["a", 2], False),
            ([None, None], ["x", 5], True),
            (["a"], ["a", "b"], False),
            (["?int", "?str"], [3, "x"], True),
            (["?int"], [True], False),  # bool is not an int here
            (["?float"], [1.5], True),
            (["?list"], [[1, 2]], True),
            ([], [], True),
        ],
    )
    def test_patterns(self, template, candidate, expected):
        assert template_matches(template, candidate) is expected


class TestTupleSpace:
    def setup_space(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = TupleSpaceServer(fabric.endpoint("space", "ts"))
        a = TupleSpaceClient(fabric.endpoint("a", "ts"),
                             server.transport.local_address)
        b = TupleSpaceClient(fabric.endpoint("b", "ts"),
                             server.transport.local_address)
        return fabric, server, a, b

    def test_out_then_rdp(self):
        fabric, server, a, b = self.setup_space()
        a.out("temp", 36.6)
        fabric.run()
        probe = b.rdp("temp", None)
        fabric.run()
        assert probe.result() == ["temp", 36.6]
        assert len(server) == 1  # rd does not consume

    def test_inp_consumes(self):
        fabric, server, a, b = self.setup_space()
        a.out("job", 1)
        fabric.run()
        take = b.inp("job", None)
        fabric.run()
        assert take.result() == ["job", 1]
        assert len(server) == 0

    def test_probe_miss_returns_none(self):
        fabric, server, a, b = self.setup_space()
        probe = b.rdp("nothing", None)
        fabric.run()
        assert probe.result() is None

    def test_blocking_read_wakes_on_out(self):
        fabric, server, a, b = self.setup_space()
        blocked = b.rd("data", "?int")
        fabric.run()
        assert blocked.pending
        a.out("data", 42)
        fabric.run()
        assert blocked.result() == ["data", 42]

    def test_single_in_wins_competition(self):
        fabric, server, a, b = self.setup_space()
        first = a.in_("tok", None)
        second = b.in_("tok", None)
        fabric.run()
        a.out("tok", 1)
        fabric.run()
        settled = [p for p in (first, second) if p.fulfilled]
        assert len(settled) == 1  # exactly one taker got the tuple
        assert len(server) == 0

    def test_rd_and_in_both_wake(self):
        fabric, server, a, b = self.setup_space()
        reader = a.rd("x", None)
        taker = b.in_("x", None)
        fabric.run()
        a.out("x", 9)
        fabric.run()
        assert reader.result() == ["x", 9]
        assert taker.result() == ["x", 9]

    def test_out_with_confirm(self):
        fabric, server, a, b = self.setup_space()
        promise = a.out("k", "v", confirm=True)
        fabric.run()
        assert promise.fulfilled

    def test_type_templates(self):
        fabric, server, a, b = self.setup_space()
        a.out("reading", 21.5)
        a.out("reading", "broken")
        fabric.run()
        take = b.inp("reading", "?float")
        fabric.run()
        assert take.result() == ["reading", 21.5]

    def test_duplicates_are_taken_in_insertion_order(self):
        fabric, server, a, b = self.setup_space()
        a.out("job", 1, "first")
        a.out("job", 2, "other")
        a.out("job", 1, "second")
        fabric.run()
        takes = [b.inp("job", 1, None) for _ in range(3)]
        fabric.run()
        assert [t.result() for t in takes] == [
            ["job", 1, "first"], ["job", 1, "second"], None,
        ]
        assert server.snapshot() == [["job", 2, "other"]]

    def test_mutating_a_result_cannot_stale_the_store(self):
        fabric, server, a, b = self.setup_space()
        confirmed = a.out("k", 1, confirm=True)
        fabric.run()
        confirmed.result()[1] = "mutated"
        read = b.rd("k", 1)
        fabric.run()
        read.result()[1] = "mutated"
        assert server.snapshot() == [["k", 1]]
        take = b.inp("k", 1)
        fabric.run()
        assert take.result() == ["k", 1]
        assert len(server) == 0

    def test_server_never_sends_a_stored_list(self):
        # A raw peer on the by-reference fabric sees the server's own dict.
        fabric, server, a, b = self.setup_space()
        codec = get_codec("binary")
        received = []
        raw = fabric.endpoint("raw", "ts")
        raw.set_receiver(lambda _src, payload: received.append(
            try_decode_dict(codec, payload)))
        space = server.transport.local_address
        raw.send(space, codec.encode({"op": "out", "tuple": ["k", 1]}))
        raw.send(space, codec.encode(
            {"op": "rd", "rid": "r1", "template": ["k", None]}))
        fabric.run()
        received[0]["tuple"][1] = "mutated"
        assert server.snapshot() == [["k", 1]]

    def test_woken_readers_get_private_lists(self):
        fabric, server, a, b = self.setup_space()
        first, second = a.rd("x", None), b.rd("x", None)
        fabric.run()
        a.out("x", 9)
        fabric.run()
        first.result()[1] = "mutated"
        assert second.result() == ["x", 9]
        assert server.snapshot() == [["x", 9]]


def _binary_frame(message, cut=None):
    return bytes(get_codec("binary").encode(message))[:cut]


class TestTupleSpaceMalformedFrames:
    """A corrupted frame is counted and dropped, never raised through the
    event loop (the class of bug PR 4 fixed in rpc/routing/discovery)."""

    def setup_space(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = TupleSpaceServer(fabric.endpoint("space", "ts"))
        client = TupleSpaceClient(fabric.endpoint("a", "ts"),
                                  server.transport.local_address)
        raw = fabric.endpoint("raw", "ts")
        return fabric, server, client, raw

    @pytest.mark.parametrize(
        "payload",
        [
            _binary_frame({"op": "out", "tuple": ["k", 1]}, cut=-3),
            b"",
            _binary_frame(["out", "k", 1]),
            _binary_frame({"op": "out", "rid": "r"}),
            _binary_frame({"op": "out", "tuple": "k"}),
            _binary_frame({"op": "rd", "rid": "r"}),
            _binary_frame({"op": "inp", "rid": "r", "template": 7}),
            _binary_frame({"op": "in", "rid": "r", "template": {"k": 1}}),
        ],
        ids=["truncated", "empty", "non-dict", "out-missing-tuple",
             "out-str-tuple", "rd-missing-template", "inp-int-template",
             "in-dict-template"],
    )
    def test_server_drops_and_counts(self, payload):
        fabric, server, client, raw = self.setup_space()
        answers = []
        raw.set_receiver(lambda _src, frame: answers.append(frame))
        raw.send(server.transport.local_address, payload)
        fabric.run()
        assert (server.malformed_frames, client.malformed_frames) == (1, 0)
        assert len(server) == 0 and server.outs == 0
        assert answers == []
        # The server is still serving.
        client.out("k", 1)
        probe = client.rdp("k", None)
        fabric.run()
        assert probe.result() == ["k", 1]

    @pytest.mark.parametrize(
        "make_payload",
        [
            lambda rid: _binary_frame(
                {"op": "tuple", "rid": rid, "tuple": ["k", 1]}, cut=-2),
            lambda rid: _binary_frame([rid, "k", 1]),
            lambda rid: _binary_frame({"op": "tuple", "rid": rid, "tuple": "k"}),
            lambda rid: _binary_frame(
                {"op": "tuple", "rid": [rid], "tuple": ["k", 1]}),
            lambda rid: _binary_frame({"op": "tuple", "tuple": ["k", 1]}),
        ],
        ids=["truncated", "non-dict", "str-tuple", "list-rid", "missing-rid"],
    )
    def test_client_drops_and_keeps_waiting(self, make_payload):
        fabric, server, client, raw = self.setup_space()
        blocked = client.rd("k", None)
        fabric.run()
        (rid,) = client._pending
        raw.send(client.transport.local_address, make_payload(rid))
        fabric.run()
        assert (client.malformed_frames, server.malformed_frames) == (1, 0)
        assert blocked.pending
        client.out("k", 1)
        fabric.run()
        assert blocked.result() == ["k", 1]


class TestSharedObjects:
    def setup_objects(self):
        fabric = InMemoryFabric(latency_s=0.01)
        host = SharedObjectHost(fabric.endpoint("host", "so"))
        a = SharedObjectCache(fabric.endpoint("a", "so"),
                              host.transport.local_address)
        b = SharedObjectCache(fabric.endpoint("b", "so"),
                              host.transport.local_address)
        return fabric, host, a, b

    def test_write_then_read(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", {"rate": 5})
        fabric.run()
        read = b.read("cfg")
        fabric.run()
        assert read.result() == {"rate": 5}

    def test_cache_hit_avoids_network(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", 1)
        fabric.run()
        b.read("cfg")
        fabric.run()
        reads_before = host.reads_served
        cached = b.read("cfg")
        assert cached.fulfilled and cached.result() == 1
        assert host.reads_served == reads_before
        assert b.cache_hits == 1

    def test_write_invalidates_other_caches(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", 1)
        fabric.run()
        b.read("cfg")
        fabric.run()
        a.write("cfg", 2)
        fabric.run()
        assert b.invalidations_received == 1
        fresh = b.read("cfg")
        fabric.run()
        assert fresh.result() == 2

    def test_writer_cache_stays_warm(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", 1)
        fabric.run()
        cached = a.read("cfg")
        assert cached.fulfilled and cached.result() == 1

    def test_versions_increase(self):
        fabric, host, a, b = self.setup_objects()
        first = a.write("k", "v1")
        fabric.run()
        second = a.write("k", "v2")
        fabric.run()
        assert second.result() == first.result() + 1

    def test_read_missing_key(self):
        fabric, host, a, b = self.setup_objects()
        read = a.read("ghost")
        fabric.run()
        assert read.result() is None
