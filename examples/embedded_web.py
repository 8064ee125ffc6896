"""Embedded web servers on tiny devices (the paper's Section 2 challenge).

Every sensor node runs a compact web server over the middleware transport;
a "browser" node crawls the network: it fetches each device's /services
index, follows the hyperlinks to the SML service descriptions, and calls
the best service it finds via RPC — web-style navigation and middleware
interaction over the same stack, with the secure transport protecting one
of the devices.

Run:  python examples/embedded_web.py
"""

from repro.discovery.description import ServiceDescription
from repro.discovery.webserver import EmbeddedWebServer, HttpClient
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import SupplierQoS
from repro.transactions.rpc import RpcEndpoint
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.transport.stack import StackSpec, build_stack

DEVICES = [
    ("bp-monitor", "bp-sensor", 0.95, 121.5),
    ("hr-monitor", "hr-sensor", 0.90, 72.0),
    ("spo2-clip", "spo2-sensor", 0.85, 0.98),
]

#: The encrypted endpoints: the secure layer alone, no reliability above it.
SECURE = StackSpec(reliable=False,
                   encryption_key=b"ward3-shared-key-0123456789abcdef")


def main() -> None:
    network = topology.star(len(DEVICES) + 1, radius=40,
                            radio_profile=IDEAL_RADIO)
    fabric = SimFabric(network)

    # Each device: an RPC service plus an embedded web server describing it.
    for i, (device_id, service_type, reliability, value) in enumerate(DEVICES):
        node_id = f"leaf{i}"
        rpc = RpcEndpoint(fabric.endpoint(node_id, "svc"))
        rpc.expose("read", lambda v=value: v)
        http_transport = fabric.endpoint(node_id, "http")
        if device_id == "bp-monitor":  # the sensitive one is encrypted
            http_transport = build_stack(http_transport, SECURE)
        server = EmbeddedWebServer(http_transport, node_name=device_id)
        server.route("/about", "text/plain",
                     f"{device_id}: a tiny {service_type} with a web face")
        server.publish_service(ServiceDescription(
            device_id, service_type, f"{node_id}:svc",
            qos=SupplierQoS(reliability=reliability),
        ))

    # The browser crawls.
    plain_client = HttpClient(fabric.endpoint("leaf3", "http"))
    secure_client = HttpClient(
        build_stack(fabric.endpoint("leaf3", "https"), SECURE)
    )
    rpc_client = RpcEndpoint(fabric.endpoint("leaf3", "rpc"))

    print("crawling device web servers:\n")
    found = []
    for i, (device_id, *_rest) in enumerate(DEVICES):
        client = secure_client if device_id == "bp-monitor" else plain_client
        server_address = Address(f"leaf{i}", "http")
        index = client.get(server_address, "/services")
        network.sim.run_for(1.0)
        page = index.result().sml()
        for entry in page.children_named("service"):
            href = entry.require("href")
            detail = client.get(server_address, href)
            network.sim.run_for(1.0)
            description = ServiceDescription.from_markup(detail.result().body)
            found.append(description)
            lock = " [encrypted]" if device_id == "bp-monitor" else ""
            print(f"  {device_id}{lock}: {href} -> {description.service_type} "
                  f"(reliability {description.qos.reliability})")

    # Follow through: call the most reliable service found on the web.
    best = max(found, key=lambda d: d.qos.reliability)
    call = rpc_client.call(Address.parse(best.provider), "read")
    network.sim.run_for(1.0)
    print(f"\nbest service per the web descriptions: {best.service_id}")
    print(f"reading via middleware RPC: {call.result()}")

    # The encrypted device is unreadable without the key.
    blocked = plain_client.get(Address("leaf0", "http"), "/services")
    network.sim.run_for(3.0)
    print(f"\nfetching the encrypted device without the key: "
          f"{'timed out (unreadable)' if blocked.rejected else 'OOPS'}")


if __name__ == "__main__":
    main()
