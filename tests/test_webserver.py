"""Tests for the embedded web server (the paper's §2 challenge)."""

import pytest

from repro.discovery.description import ServiceDescription
from repro.errors import InteropError
from repro.discovery.webserver import REQUEST_TIMEOUT_S, EmbeddedWebServer, HttpClient
from repro.qos.spec import SupplierQoS
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import ReliabilityParams
from repro.transport.secure import SecureTransport
from repro.transport.stack import StackSpec, build_stack


def setup_pair():
    fabric = InMemoryFabric(latency_s=0.005)
    server = EmbeddedWebServer(fabric.endpoint("device", "http"),
                               node_name="bp-monitor-7")
    client = HttpClient(fabric.endpoint("browser", "http"))
    return fabric, server, client


def fetch(fabric, client, server, path):
    promise = client.get(server.transport.local_address, path)
    fabric.run()
    return promise.result()


class TestEmbeddedWebServer:
    def test_index_page_lists_routes(self):
        fabric, server, client = setup_pair()
        server.route("/status", "text/plain", "all good")
        response = fetch(fabric, client, server, "/")
        assert response.ok
        assert "bp-monitor-7" in response.body
        assert '<a href="/status">' in response.body

    def test_static_route(self):
        fabric, server, client = setup_pair()
        server.route("/status", "text/plain", "all good")
        response = fetch(fabric, client, server, "/status")
        assert response.ok and response.body == "all good"
        # The route's content type is on the wire (the client keeps only
        # status and body).
        raw = fabric.endpoint("raw", "http")
        replies = []
        raw.set_receiver(lambda source, data: replies.append(bytes(data)))
        raw.send(server.transport.local_address,
                 b"GET /status HTTP/1.0\r\nX-Request-Id: r1\r\n\r\n")
        fabric.run()
        assert b"\r\nContent-Type: text/plain\r\n" in replies[0]

    def test_dynamic_route(self):
        fabric, server, client = setup_pair()
        reading = {"value": 120}
        server.route("/bp", "text/plain",
                     lambda path: (200, "text/plain", str(reading["value"])))
        assert fetch(fabric, client, server, "/bp").body == "120"
        reading["value"] = 135
        assert fetch(fabric, client, server, "/bp").body == "135"

    def test_missing_route_404(self):
        fabric, server, client = setup_pair()
        response = fetch(fabric, client, server, "/nothing")
        assert response.status == 404

    def test_handler_exception_becomes_500(self):
        fabric, server, client = setup_pair()
        server.route("/boom", "text/plain",
                     lambda path: 1 / 0)
        response = fetch(fabric, client, server, "/boom")
        assert response.status == 500
        assert server.errors == 1

    def test_services_index_with_hyperlinks(self):
        fabric, server, client = setup_pair()
        server.publish_service(ServiceDescription(
            "bp-1", "bp-sensor", "device:svc",
            qos=SupplierQoS(reliability=0.95),
        ))
        server.publish_service(ServiceDescription(
            "hr-1", "hr-sensor", "device:svc",
        ))
        response = fetch(fabric, client, server, "/services")
        assert response.ok
        index = response.sml()
        hrefs = [child.require("href") for child in index.children_named("service")]
        assert hrefs == ["/services/bp-1", "/services/hr-1"]

    def test_service_detail_is_description_markup(self):
        fabric, server, client = setup_pair()
        original = ServiceDescription(
            "bp-1", "bp-sensor", "device:svc",
            attributes={"site": "arm"}, qos=SupplierQoS(reliability=0.95),
        )
        server.publish_service(original)
        response = fetch(fabric, client, server, "/services/bp-1")
        parsed = ServiceDescription.from_markup(response.body)
        assert parsed.service_id == "bp-1"
        assert parsed.attributes == {"site": "arm"}
        assert parsed.qos.reliability == pytest.approx(0.95)

    def test_unknown_service_404(self):
        fabric, server, client = setup_pair()
        assert fetch(fabric, client, server, "/services/ghost").status == 404

    def test_client_timeout_without_server(self):
        fabric = InMemoryFabric(latency_s=0.005)
        client = HttpClient(fabric.endpoint("browser", "http"))
        promise = client.get(Address("nobody", "http"), "/")
        fabric.run()
        assert promise.rejected
        with pytest.raises(InteropError):
            promise.result()

    def test_client_gives_up_after_request_timeout(self):
        fabric = InMemoryFabric(latency_s=0.005)
        client = HttpClient(fabric.endpoint("browser", "http"))
        fabric.sim.run_until(1.0)
        given_up = []
        client.get(Address("nobody", "http"), "/").on_error(
            lambda error: given_up.append(fabric.sim.now()))
        fabric.run()
        assert given_up == [pytest.approx(1.0 + REQUEST_TIMEOUT_S)]

    def test_concurrent_requests_correlated(self):
        fabric, server, client = setup_pair()
        server.route("/a", "text/plain", "alpha")
        server.route("/b", "text/plain", "beta")
        pa = client.get(server.transport.local_address, "/a")
        pb = client.get(server.transport.local_address, "/b")
        fabric.run()
        assert pa.result().body == "alpha"
        assert pb.result().body == "beta"

    def test_post_not_supported(self):
        fabric, server, client = setup_pair()
        # Craft a POST by hand through a raw endpoint.
        raw = fabric.endpoint("rawpeer", "http")
        responses = []
        raw.set_receiver(lambda src, data: responses.append(data))
        raw.send(server.transport.local_address,
                 b"POST /status HTTP/1.0\r\nX-Request-Id: r1\r\n\r\nbody")
        fabric.run()
        assert b"500" in responses[0]

    def test_http_over_secure_transport(self):
        """The embedded server composes with the security layer."""
        key = b"0123456789abcdef0123456789abcdef"
        fabric = InMemoryFabric(latency_s=0.005)
        server = EmbeddedWebServer(
            SecureTransport(fabric.endpoint("device", "http"), key)
        )
        server.route("/secret", "text/plain", "classified")
        client = HttpClient(
            SecureTransport(fabric.endpoint("browser", "http"), key)
        )
        promise = client.get(Address("device", "http"), "/secret")
        fabric.run()
        assert promise.result().body == "classified"


class TestSecureStackSpec:
    def test_full_stack_with_encryption(self):
        key = b"0123456789abcdef0123456789abcdef"
        fabric = InMemoryFabric(latency_s=0.01, loss_probability=0.2, seed=4)
        spec = StackSpec(
            reliable=True,
            reliability_params=ReliabilityParams(ack_timeout_s=0.1, max_retries=10),
            encryption_key=key,
        )
        stack_a = build_stack(fabric.endpoint("a"), spec)
        stack_b = build_stack(fabric.endpoint("b"), spec)
        received = []
        stack_b.set_receiver(lambda src, data: received.append(data))
        for i in range(20):
            stack_a.send(Address("b"), f"m{i}".encode())
        fabric.run()
        assert len(received) == 20

    def test_encrypted_stack_rejects_wrong_key_peer(self):
        fabric = InMemoryFabric(latency_s=0.01)
        good = build_stack(
            fabric.endpoint("a"),
            StackSpec(reliable=False, encryption_key=b"A" * 32),
        )
        bad = build_stack(
            fabric.endpoint("b"),
            StackSpec(reliable=False, encryption_key=b"B" * 32),
        )
        received = []
        bad.set_receiver(lambda src, data: received.append(data))
        good.send(Address("b"), b"secret")
        fabric.run()
        assert received == []
