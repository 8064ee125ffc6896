"""Tests for RPC and message-oriented middleware."""

import pytest

from repro.errors import RemoteError, RpcError, RpcTimeoutError, SchemaError
from repro.interop.schema import FieldSpec, InterfaceSchema
from repro.transactions.messaging import (
    MAX_REDELIVERIES,
    REDELIVERY_TIMEOUT_S,
    MessageBroker,
    MessagingClient,
)
from repro.transactions.rpc import RpcEndpoint
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric


def rpc_pair(loss=0.0, seed=0, **server_kwargs):
    fabric = InMemoryFabric(latency_s=0.01, loss_probability=loss, seed=seed)
    server = RpcEndpoint(fabric.endpoint("server", "rpc"), **server_kwargs)
    client = RpcEndpoint(fabric.endpoint("client", "rpc"))
    return fabric, server, client


class TestRpc:
    def test_call_returns_value(self):
        fabric, server, client = rpc_pair()
        server.expose("add", lambda a, b: a + b)
        promise = client.call(server.transport.local_address, "add", {"a": 2, "b": 3})
        fabric.run()
        assert promise.result() == 5

    def test_remote_exception_marshalled(self):
        fabric, server, client = rpc_pair()

        def fail():
            raise ValueError("bad input")

        server.expose("fail", fail)
        promise = client.call(server.transport.local_address, "fail")
        fabric.run()
        assert promise.rejected
        with pytest.raises(RemoteError) as excinfo:
            promise.result()
        assert str(excinfo.value).startswith("ValueError: ")
        assert "bad input" in str(excinfo.value)

    def test_unknown_method_is_remote_error(self):
        fabric, server, client = rpc_pair()
        promise = client.call(server.transport.local_address, "ghost")
        fabric.run()
        assert promise.rejected

    def test_timeout_when_server_silent(self):
        fabric = InMemoryFabric(latency_s=0.01)
        client = RpcEndpoint(fabric.endpoint("client", "rpc"), default_timeout_s=0.5)
        promise = client.call(Address("nobody", "rpc"), "m")
        fabric.run()
        assert promise.rejected
        with pytest.raises(RpcTimeoutError):
            promise.result()
        assert client.timeouts == 1

    def test_retries_recover_from_loss(self):
        fabric = InMemoryFabric(latency_s=0.01, loss_probability=0.3, seed=9)
        server = RpcEndpoint(fabric.endpoint("server", "rpc"))
        client = RpcEndpoint(fabric.endpoint("client", "rpc"), default_timeout_s=0.2)
        server.expose("ping", lambda: "pong")
        results = []
        for _ in range(20):
            client.call(server.transport.local_address, "ping", retries=20) \
                .on_settle(lambda p: results.append(p.fulfilled))
        fabric.run()
        assert all(results) and len(results) == 20

    def test_notify_is_one_way(self):
        fabric, server, client = rpc_pair()
        seen = []
        server.expose("log", lambda message: seen.append(message))
        client.notify(server.transport.local_address, "log", {"message": "hi"})
        fabric.run()
        assert seen == ["hi"]
        assert client.timeouts == 0

    def test_duplicate_expose_rejected(self):
        fabric, server, client = rpc_pair()
        server.expose("m", lambda: 1)
        with pytest.raises(RpcError):
            server.expose("m", lambda: 2)

    def test_late_reply_after_timeout_dropped(self):
        fabric, server, client = rpc_pair()
        server.expose("slow", lambda: "late")
        promise = client.call(server.transport.local_address, "slow", timeout_s=0.001)
        # Timeout fires before the 0.01 s round trip completes.
        fabric.run()
        assert promise.rejected

    def test_calls_served_counter(self):
        fabric, server, client = rpc_pair()
        server.expose("m", lambda: 1)
        client.call(server.transport.local_address, "m")
        client.call(server.transport.local_address, "m")
        fabric.run()
        assert server.calls_served == 2


class TestRpcWithSchema:
    def make_interface(self):
        interface = InterfaceSchema("thermo")
        interface.add_operation("read", [FieldSpec("unit", "str")], returns="float")
        return interface

    def test_schema_validates_server_side(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = RpcEndpoint(fabric.endpoint("s", "rpc"), interface=self.make_interface())
        client = RpcEndpoint(fabric.endpoint("c", "rpc"))
        server.expose("read", lambda unit: 21.5)
        bad = client.call(server.transport.local_address, "read", {"unit": 5})
        good = client.call(server.transport.local_address, "read", {"unit": "C"})
        fabric.run()
        assert bad.rejected  # SchemaError marshalled back
        assert good.result() == 21.5

    def test_schema_validates_client_side(self):
        fabric = InMemoryFabric(latency_s=0.01)
        client = RpcEndpoint(fabric.endpoint("c", "rpc"), interface=self.make_interface())
        promise = client.call(Address("s", "rpc"), "read", {"unit": 5})
        assert promise.rejected
        with pytest.raises(SchemaError):
            promise.result()

    def test_undeclared_method_cannot_be_exposed(self):
        fabric = InMemoryFabric()
        server = RpcEndpoint(fabric.endpoint("s", "rpc"), interface=self.make_interface())
        with pytest.raises(SchemaError):
            server.expose("undeclared", lambda: None)

    def test_bad_return_value_rejected(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = RpcEndpoint(fabric.endpoint("s", "rpc"), interface=self.make_interface())
        client = RpcEndpoint(fabric.endpoint("c", "rpc"))
        server.expose("read", lambda unit: "warm")  # not a float
        promise = client.call(server.transport.local_address, "read", {"unit": "C"})
        fabric.run()
        assert promise.rejected


class TestMessaging:
    def setup_broker(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = MessageBroker(fabric.endpoint("broker", "mq"))
        return fabric, broker

    def test_put_then_subscribe_delivers_backlog(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        consumer = MessagingClient(fabric.endpoint("c", "mq"),
                                   broker.transport.local_address)
        producer.put("jobs", {"n": 1})
        fabric.run()
        assert broker.depth("jobs") == 1
        received = []
        consumer.subscribe("jobs", received.append)
        fabric.run()
        assert received == [{"n": 1}]
        assert broker.depth("jobs") == 0

    def test_round_robin_between_consumers(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        got_a, got_b = [], []
        consumer_a = MessagingClient(fabric.endpoint("a", "mq"),
                                     broker.transport.local_address)
        consumer_b = MessagingClient(fabric.endpoint("b", "mq"),
                                     broker.transport.local_address)
        consumer_a.subscribe("jobs", got_a.append)
        consumer_b.subscribe("jobs", got_b.append)
        fabric.run()
        for i in range(6):
            producer.put("jobs", i)
            fabric.run()
        assert len(got_a) == 3 and len(got_b) == 3

    def test_put_with_confirm(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        promise = producer.put("jobs", "x", confirm=True)
        fabric.run()
        assert promise.fulfilled
        assert "mid" in promise.result()

    def test_unacked_delivery_redelivered(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        # A consumer whose transport dies right after subscribing.
        lost_consumer = MessagingClient(fabric.endpoint("dead", "mq"),
                                        broker.transport.local_address)
        lost_consumer.subscribe("jobs", lambda body: None)
        fabric.sim.run_until(1.0)
        lost_consumer.transport.close()
        producer.put("jobs", "important")
        fabric.sim.run_until(2.0)
        # Now a live consumer joins; the broker must re-deliver to it.
        received = []
        live = MessagingClient(fabric.endpoint("live", "mq"),
                               broker.transport.local_address)
        live.subscribe("jobs", received.append)
        fabric.sim.run_until(10.0)
        assert received == ["important"]
        assert broker.redeliveries >= 1

    def test_unackable_message_dead_lettered(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        doomed = MessagingClient(fabric.endpoint("doomed", "mq"),
                                 broker.transport.local_address)
        doomed.subscribe("jobs", lambda body: None)
        fabric.sim.run_until(1.0)
        doomed.transport.close()
        producer.put("jobs", "stuck")
        fabric.run()  # drains because redeliveries are capped
        assert broker.dead_letters == [("jobs", "stuck")]

    def test_unacked_delivery_waits_out_the_redelivery_timeout(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        silent = MessagingClient(fabric.endpoint("silent", "mq"),
                                 broker.transport.local_address)
        silent.subscribe("jobs", lambda body: None)
        fabric.sim.run_until(1.0)
        silent.transport.close()
        producer.put("jobs", "job")  # the broker delivers it at 1.01 s
        fabric.sim.run_until(1.0 + REDELIVERY_TIMEOUT_S)
        assert broker.redeliveries == 0
        fabric.sim.run_until(1.02 + REDELIVERY_TIMEOUT_S)
        assert broker.redeliveries == 1

    def test_dead_letter_after_max_redeliveries(self):
        fabric, broker = self.setup_broker()
        producer = MessagingClient(fabric.endpoint("p", "mq"),
                                   broker.transport.local_address)
        silent = MessagingClient(fabric.endpoint("silent", "mq"),
                                 broker.transport.local_address)
        silent.subscribe("jobs", lambda body: None)
        fabric.sim.run_until(1.0)
        silent.transport.close()
        producer.put("jobs", "job")
        fabric.run()
        assert broker.deliveries == 1 + MAX_REDELIVERIES
        assert broker.redeliveries == MAX_REDELIVERIES
        assert fabric.sim.now() == pytest.approx(
            1.01 + (1 + MAX_REDELIVERIES) * REDELIVERY_TIMEOUT_S)

    def test_depth_of_unknown_queue(self):
        fabric, broker = self.setup_broker()
        assert broker.depth("nothing") == 0
