"""E6 — transaction technologies head to head (Section 3.6).

Claim under test: "The chosen technology should not over-burden the
network, and should not prohibit the interaction between nodes, i.e., it
should provide asynchronous connections."

The same logical workload — N small data items from a producer node to a
consumer node — is run over each interaction paradigm on an identical
star network. Reported: completion time (virtual), bytes put on the air,
messages transmitted, and whether the producer ever blocks.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import Rows, ascending, check, keyed
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.transactions.agents import AgentHost, MobileAgent
from repro.transactions.messaging import MessageBroker, MessagingClient
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.simnet import SimFabric

N_ITEMS = 200
PAYLOAD = {"reading": 21.5, "unit": "C", "seq": 0}
PLAYOUT_DELAYS_S = (0.02, 0.1, 0.3, 0.6)  # E6b's sweep


def _network():
    network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
    return network, SimFabric(network)


def _finish(network, done_check) -> float:
    time = 0.0
    while time < 300.0 and not done_check():
        network.sim.run_for(1.0)
        time += 1.0
    return network.sim.now()


def run_rpc() -> Dict[str, Any]:
    network, fabric = _network()
    received = []
    server = RpcEndpoint(fabric.endpoint("leaf0", "svc"))
    server.expose("push", lambda **item: received.append(item))
    client = RpcEndpoint(fabric.endpoint("leaf1", "svc"))
    for i in range(N_ITEMS):
        client.call(server.transport.local_address, "push", {**PAYLOAD, "seq": i})
    elapsed = _finish(network, lambda: len(received) >= N_ITEMS)
    return {"paradigm": "rpc(sync)", "delivered": len(received),
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "yes"}


def run_rpc_oneway() -> Dict[str, Any]:
    network, fabric = _network()
    received = []
    server = RpcEndpoint(fabric.endpoint("leaf0", "svc"))
    server.expose("push", lambda **item: received.append(item))
    client = RpcEndpoint(fabric.endpoint("leaf1", "svc"))
    for i in range(N_ITEMS):
        client.notify(server.transport.local_address, "push", {**PAYLOAD, "seq": i})
    elapsed = _finish(network, lambda: len(received) >= N_ITEMS)
    return {"paradigm": "rpc(one-way)", "delivered": len(received),
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "no"}


def run_messaging() -> Dict[str, Any]:
    network, fabric = _network()
    broker = MessageBroker(fabric.endpoint("hub", "mq"))
    received = []
    consumer = MessagingClient(fabric.endpoint("leaf0", "mq"),
                               broker.transport.local_address)
    consumer.subscribe("data", received.append)
    producer = MessagingClient(fabric.endpoint("leaf1", "mq"),
                               broker.transport.local_address)
    network.sim.run_for(1.0)
    for i in range(N_ITEMS):
        producer.put("data", {**PAYLOAD, "seq": i})
    elapsed = _finish(network, lambda: len(received) >= N_ITEMS)
    return {"paradigm": "message-queue", "delivered": len(received),
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "no"}


def run_pubsub() -> Dict[str, Any]:
    network, fabric = _network()
    broker = PubSubBroker(fabric.endpoint("hub", "ps"))
    received = []
    subscriber = PubSubClient(fabric.endpoint("leaf0", "ps"),
                              broker.transport.local_address)
    subscriber.subscribe("data.#", lambda topic, event: received.append(event))
    publisher = PubSubClient(fabric.endpoint("leaf1", "ps"),
                             broker.transport.local_address)
    network.sim.run_for(1.0)
    for i in range(N_ITEMS):
        publisher.publish("data.readings", {**PAYLOAD, "seq": i})
    elapsed = _finish(network, lambda: len(received) >= N_ITEMS)
    return {"paradigm": "publish-subscribe", "delivered": len(received),
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "no"}


def run_tuplespace() -> Dict[str, Any]:
    network, fabric = _network()
    space = TupleSpaceServer(fabric.endpoint("hub", "ts"))
    consumer = TupleSpaceClient(fabric.endpoint("leaf0", "ts"),
                                space.transport.local_address)
    producer = TupleSpaceClient(fabric.endpoint("leaf1", "ts"),
                                space.transport.local_address)
    received = []

    def take() -> None:
        consumer.in_("data", None).on_value(
            lambda value: (received.append(value), take())
        )

    take()
    for i in range(N_ITEMS):
        producer.out("data", {**PAYLOAD, "seq": i})
    elapsed = _finish(network, lambda: len(received) >= N_ITEMS)
    return {"paradigm": "tuple-space", "delivered": len(received),
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "no"}


def run_sharedobjects() -> Dict[str, Any]:
    """Shared objects measured on their strength: repeated reads.

    One write then N_ITEMS reads from the consumer — cache hits keep the
    air silent, which is the point of the paradigm.
    """
    network, fabric = _network()
    host = SharedObjectHost(fabric.endpoint("hub", "so"))
    writer = SharedObjectCache(fabric.endpoint("leaf1", "so"),
                               host.transport.local_address)
    reader = SharedObjectCache(fabric.endpoint("leaf0", "so"),
                               host.transport.local_address)
    writer.write("data", PAYLOAD)
    network.sim.run_for(1.0)
    received = []

    def read_loop(i: int) -> None:
        if i >= N_ITEMS:
            return
        reader.read("data").on_value(
            lambda value: (received.append(value),
                           network.sim.schedule(0.001, read_loop, i + 1))
        )

    read_loop(0)
    elapsed = _finish(network, lambda: len(received) >= N_ITEMS)
    return {"paradigm": "shared-objects(reads)", "delivered": len(received),
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "no"}


class _BatchCollector(MobileAgent):
    """Reads the supplier's value N_ITEMS times locally at the stop."""

    def visit(self, host) -> None:
        read = host.services["read"]
        self.state["items"] = [read(i) for i in range(N_ITEMS)]


def run_mobile_agent() -> Dict[str, Any]:
    """The agent moves to the data: the whole batch costs one round trip."""
    network, fabric = _network()
    supplier = AgentHost(
        fabric.endpoint("leaf0", "agents"),
        services={"read": lambda i: {**PAYLOAD, "seq": i}},
    )
    consumer = AgentHost(fabric.endpoint("leaf1", "agents"))
    supplier.register(_BatchCollector)
    consumer.register(_BatchCollector)
    from repro.transport.base import Address

    promise = consumer.dispatch(_BatchCollector(), [Address("leaf0", "agents")])
    elapsed = _finish(network, lambda: promise.fulfilled)
    delivered = len(promise.result().get("items", [])) if promise.fulfilled else 0
    return {"paradigm": "mobile-agent(batch)", "delivered": delivered,
            "time_s": elapsed, "bytes_on_air": network.medium.bytes_transmitted,
            "messages": network.medium.transmissions, "producer_blocks": "no"}


def run_streaming() -> List[Dict[str, Any]]:
    """E6b — multimedia streams (§3.10): the jitter-buffer tradeoff.

    A 25 fps stream crosses a channel whose per-frame delay varies by up to
    150 ms. Sweeping the sink's playout delay shows latency buying playback
    continuity — §3.4's time-constraint story made concrete.
    """
    from repro.netsim.medium import RadioProfile
    from repro.transactions.streaming import StreamingSink, StreamingSource

    rows: List[Dict[str, Any]] = []
    for playout_delay in PLAYOUT_DELAYS_S:
        profile = RadioProfile("jittery", bandwidth_bps=11e6, range_m=100.0,
                               base_latency_s=0.001, contention_window_s=0.15)
        network = topology.star(2, radius=40, radio_profile=profile, seed=5)
        fabric = SimFabric(network)
        sink_transport = fabric.endpoint("leaf0", "media")
        sink = StreamingSink(sink_transport, frame_interval_s=0.04,
                             playout_delay_s=playout_delay)
        source = StreamingSource(fabric.endpoint("leaf1", "media"),
                                 sink_transport.local_address,
                                 frame_interval_s=0.04, total_frames=250)
        source.start()
        network.sim.run_until(250 * 0.04 + playout_delay + 3.0)
        rows.append(
            {
                "playout_delay_s": playout_delay,
                "continuity": round(sink.continuity(), 4),
                "glitches": sink.underruns + sink.late_drops,
                "mean_buffer_wait_s": round(sink.mean_buffer_wait_s(), 4),
            }
        )
    return rows


def run() -> List[Dict[str, Any]]:
    """The E6 table: identical workload, one row per paradigm."""
    return [
        run_rpc(),
        run_rpc_oneway(),
        run_messaging(),
        run_pubsub(),
        run_tuplespace(),
        run_sharedobjects(),
        run_mobile_agent(),
    ]


def verdict(rows: Rows) -> str:
    by_paradigm = keyed(rows, "paradigm")
    check(len(by_paradigm) == 7, f"{len(by_paradigm)} paradigms, not 7")
    for row in rows:
        check(row["delivered"] == N_ITEMS,
              f"{row['paradigm']} delivered {row['delivered']} of {N_ITEMS}")
    sync, one_way = by_paradigm["rpc(sync)"], by_paradigm["rpc(one-way)"]
    check(one_way["messages"] <= 0.6 * sync["messages"],
          "one-way RPC does not halve sync RPC's messages")
    # Broker paradigms relay through a third node: more air traffic than
    # direct one-way RPC.
    for broker in ("message-queue", "publish-subscribe"):
        check(by_paradigm[broker]["bytes_on_air"] > one_way["bytes_on_air"],
              f"{broker} put fewer bytes on the air than one-way RPC")
    cached = by_paradigm["shared-objects(reads)"]["bytes_on_air"]
    check(cached < 0.05 * sync["bytes_on_air"],
          f"cached shared-object reads cost {cached} bytes on the air")
    blockers = [row["paradigm"] for row in rows if row["producer_blocks"] == "yes"]
    check(blockers == ["rpc(sync)"], f"producers that block: {blockers}")
    return (f"holds (one-way RPC {one_way['bytes_on_air'] / sync['bytes_on_air']:.2f}x "
            f"sync RPC's bytes, cached reads {sync['bytes_on_air'] / cached:.0f}x "
            f"cheaper; only sync RPC blocks its producer)")


def verdict_streaming(rows: Rows) -> str:
    continuity = [row["continuity"] for row in rows]
    check(ascending(continuity), f"continuity {continuity} falls as the buffer grows")
    check(continuity[-1] > 0.99, f"the roomiest buffer still glitches: {continuity[-1]}")
    check(rows[0]["glitches"] > rows[-1]["glitches"], "the buffer removed no glitch")
    check(ascending([row["mean_buffer_wait_s"] for row in rows]),
          "buffer wait does not grow with playout delay")
    return (f"holds (continuity {continuity[0]:g} -> {continuity[-1]:g}, glitches "
            f"{rows[0]['glitches']} -> {rows[-1]['glitches']} as playout delay grows "
            f"{rows[0]['playout_delay_s']:g} -> {rows[-1]['playout_delay_s']:g} s)")
