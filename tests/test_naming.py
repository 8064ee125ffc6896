"""Tests for logical names and the location service."""

import pytest

from repro.errors import NameNotFoundError, NamingError
from repro.naming.locator import REQUEST_TIMEOUT_S, LocationClient, LocationServer
from repro.naming.names import LogicalName
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric


class TestLogicalName:
    def test_parse_and_str_round_trip(self):
        name = LogicalName.parse("hospital/ward3/bp-2")
        assert str(name) == "hospital/ward3/bp-2"
        assert name.segments == ("hospital", "ward3", "bp-2")

    def test_leaf_and_parent(self):
        name = LogicalName.parse("a/b/c")
        assert name.leaf == "c"
        assert str(name.parent) == "a/b"

    def test_root_has_no_parent(self):
        with pytest.raises(NamingError):
            LogicalName.parse("root").parent

    def test_child(self):
        assert str(LogicalName.parse("a").child("b")) == "a/b"

    def test_prefix_matching(self):
        parent = LogicalName.parse("a/b")
        assert parent.is_prefix_of(LogicalName.parse("a/b/c"))
        assert parent.is_prefix_of(parent)
        assert not parent.is_prefix_of(LogicalName.parse("a/x/c"))

    def test_invalid_names_rejected(self):
        for bad in ("", "/a", "a/", "a//b", "has space"):
            with pytest.raises(NamingError):
                LogicalName.parse(bad)

    def test_depth(self):
        assert LogicalName.parse("a/b/c").depth() == 3

    def test_ordering(self):
        names = [LogicalName.parse(t) for t in ("b", "a/z", "a/b")]
        assert [str(n) for n in sorted(names)] == ["a/b", "a/z", "b"]


class TestLocationService:
    def setup(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = LocationServer(fabric.endpoint("registry", "loc"))
        client = LocationClient(fabric.endpoint("mobile", "loc"),
                                server.transport.local_address)
        return fabric, server, client

    def test_bind_and_resolve(self):
        fabric, server, client = self.setup()
        name = LogicalName.parse("sensors/bp-1")
        client.bind(name, Address("node5", "svc"))
        resolve = client.resolve(name)
        fabric.run()
        assert resolve.result() == Address("node5", "svc")

    def test_resolve_unknown_rejects(self):
        fabric, server, client = self.setup()
        resolve = client.resolve(LogicalName.parse("ghost"))
        fabric.run()
        assert resolve.rejected
        with pytest.raises(NameNotFoundError):
            resolve.result()

    def test_rebind_moves_service(self):
        fabric, server, client = self.setup()
        name = LogicalName.parse("sensors/bp-1")
        client.bind(name, Address("node5", "svc"))
        fabric.run()
        client.bind(name, Address("node9", "svc"))  # the node moved
        resolve = client.resolve(name)
        fabric.run()
        assert resolve.result() == Address("node9", "svc")

    def test_stale_version_ignored(self):
        fabric, server, client = self.setup()
        name = "sensors/bp-1"
        # Deliver version 2 first, then a stale version 1 directly.
        server._on_message(Address("x"), server.codec.encode(
            {"op": "bind", "rid": "r1", "name": name, "address": "new:svc",
             "version": 2}))
        server._on_message(Address("x"), server.codec.encode(
            {"op": "bind", "rid": "r2", "name": name, "address": "old:svc",
             "version": 1}))
        assert server.binding(name).address == "new:svc"

    def test_move_event(self):
        fabric, server, client = self.setup()
        events = []
        server.events.on("bound", lambda b: events.append(("bound", b.address)))
        server.events.on("moved", lambda b: events.append(("moved", b.address)))
        name = LogicalName.parse("svc/x")
        client.bind(name, Address("a"))
        fabric.run()
        client.bind(name, Address("b"))
        fabric.run()
        assert events == [("bound", "a:default"), ("moved", "b:default")]

    def test_resolve_prefix(self):
        fabric, server, client = self.setup()
        client.bind(LogicalName.parse("ward/bed1/bp"), Address("n1", "svc"))
        client.bind(LogicalName.parse("ward/bed2/bp"), Address("n2", "svc"))
        client.bind(LogicalName.parse("lab/printer"), Address("n3", "svc"))
        fabric.run()
        listing = client._ask({"op": "resolve_prefix", "prefix": "ward"})
        fabric.run()
        assert sorted(listing.result()) == ["ward/bed1/bp", "ward/bed2/bp"]

    def test_unbind(self):
        fabric, server, client = self.setup()
        name = LogicalName.parse("temp/svc")
        client.bind(name, Address("n1"))
        fabric.run()
        client._ask({"op": "unbind", "name": str(name)})
        resolve = client.resolve(name)
        fabric.run()
        assert resolve.rejected

    def test_resolve_timeout_when_server_gone(self):
        fabric = InMemoryFabric(latency_s=0.01)
        client = LocationClient(fabric.endpoint("c", "loc"),
                                Address("nobody", "loc"))
        resolve = client.resolve(LogicalName.parse("x"))
        fabric.run()
        assert resolve.rejected

    def test_resolve_gives_up_after_request_timeout(self):
        fabric = InMemoryFabric(latency_s=0.01)
        client = LocationClient(fabric.endpoint("c", "loc"),
                                Address("nobody", "loc"))
        given_up = []
        client.resolve(LogicalName.parse("x")).on_error(
            lambda error: given_up.append(fabric.sim.now()))
        fabric.run()
        assert given_up == [pytest.approx(REQUEST_TIMEOUT_S)]
