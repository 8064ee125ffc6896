"""E9 — the cost of markup-based interoperability (Section 3.9).

Claim under test: "the use of a markup language such as XML ... is
necessary to guarantee interoperability. ... however, the cost must be
weighed carefully, especially when considering embedded systems."

The same RPC workload runs over the binary, JSON, and SML (markup) codecs;
reported: bytes per call on the air, total virtual completion time, and
encode/decode CPU time — the concrete "cost to be weighed". RPC itself
passes lazy frames by reference and runs no codec on the simulated path,
so the CPU column times an explicit encode + decode of the run's own call
and result messages. A second table
exercises the interoperability *benefit*: bridging an RPC client to
pub/sub consumers through the paradigm bridge.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.experiments.common import Rows, check, keyed
from repro.transactions.bridge import RpcEventBridge
from repro.interop.codec import get_codec
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transport.simnet import SimFabric
from repro.util.ids import IdGenerator

N_CALLS = 200
PARAMS = {"patient": "p-113", "vitals": {"bp": 121.5, "hr": 72, "spo2": 0.98},
          "flags": ["routine", "ward3"]}


def run_codec(codec_name: str) -> Dict[str, Any]:
    codec = get_codec(codec_name)
    network = topology.star(2, radius=40, radio_profile=IDEAL_RADIO)
    fabric = SimFabric(network)
    server = RpcEndpoint(fabric.endpoint("leaf0", "svc"), codec=codec)
    server.expose("record", lambda **kw: {"stored": True, "seq": kw.get("seq")})
    client = RpcEndpoint(fabric.endpoint("leaf1", "svc"), codec=codec)
    completed = []
    for i in range(N_CALLS):
        client.call(server.transport.local_address, "record",
                    {**PARAMS, "seq": i}).on_value(completed.append)
    network.sim.run(max_events=5_000_000)
    # What a real wire would cost each end: every call and every result
    # of the run above, encoded and decoded once.
    rids = IdGenerator(f"rpc:{client.transport.local_address}")
    messages: List[Dict[str, Any]] = []
    for i, result in enumerate(completed):
        rid = rids.next()
        messages.append({"op": "call", "rid": rid, "method": "record",
                         "params": {**PARAMS, "seq": i}})
        messages.append({"op": "result", "rid": rid, "value": result})
    cpu_started = time.perf_counter()
    for message in messages:
        codec.decode(codec.encode(message))
    cpu_s = time.perf_counter() - cpu_started
    return {
        "codec": codec_name,
        "calls": len(completed),
        "bytes_on_air": network.medium.bytes_transmitted,
        "bytes_per_call": round(network.medium.bytes_transmitted / N_CALLS, 1),
        "virtual_time_s": round(network.sim.now(), 3),
        "cpu_ms_total": round(cpu_s * 1000, 1),
    }


N_EVENTS = 50


def run_bridge() -> List[Dict[str, Any]]:
    """RPC world publishing into pub/sub world through the bridge."""
    network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
    fabric = SimFabric(network)
    broker = PubSubBroker(fabric.endpoint("hub", "ps"))
    bridge = RpcEventBridge(
        RpcEndpoint(fabric.endpoint("leaf0", "rpc")),
        PubSubClient(fabric.endpoint("leaf0", "ps"),
                     broker.transport.local_address),
    )
    received = []
    subscriber = PubSubClient(fabric.endpoint("leaf1", "ps"),
                              broker.transport.local_address)
    subscriber.subscribe("vitals.#", lambda topic, event: received.append(event))
    caller = RpcEndpoint(fabric.endpoint("leaf2", "rpc"))
    network.sim.run_for(1.0)
    from repro.transport.base import Address

    for i in range(N_EVENTS):
        caller.call(Address("leaf0", "rpc"), "publish",
                    {"topic": "vitals.bp", "event": {"seq": i}})
    network.sim.run(max_events=5_000_000)
    return [{
        "path": "rpc -> bridge -> pub/sub",
        "published_via_rpc": bridge.published,
        "received_by_subscriber": len(received),
        "loss": bridge.published - len(received),
    }]


def run() -> List[Dict[str, Any]]:
    """The E9 table: one row per wire format."""
    return [run_codec(name) for name in ("binary", "json", "sml")]


def verdict(rows: Rows) -> str:
    by_codec = keyed(rows, "codec")
    for row in rows:
        check(row["calls"] == N_CALLS, f"{row['codec']} completed {row['calls']} calls")
    binary, json, sml = (by_codec[c]["bytes_per_call"] for c in ("binary", "json", "sml"))
    check(binary < json < sml, f"bytes per call {binary}, {json}, {sml} "
                               "do not order binary < json < sml")
    check(sml > 2 * binary, f"markup costs only {sml / binary:.1f}x binary")
    return f"holds ({sml / binary:.1f}x bytes)"


def verdict_bridge(rows: Rows) -> str:
    (row,) = rows
    check(row["published_via_rpc"] == N_EVENTS,
          f"{row['published_via_rpc']} of {N_EVENTS} calls were published")
    check(row["loss"] == 0, f"the bridge lost {row['loss']} events")
    return f"holds ({row['received_by_subscriber']}/{N_EVENTS} events, none lost)"
