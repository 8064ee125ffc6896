"""E12 — network independence (Section 3.2).

Claim under test: "middleware intended to be flexible in a variety of
settings should function independent of the network stack."

The *identical* application code — a supplier exposing an RPC service, a
consumer discovering and calling it 100 times — runs over four transports:
the in-process fabric, a wireline star (Ethernet links), an 802.11 wireless
star, and a Bluetooth-profile star, the last two with the reliability layer
(and its retransmission-policy ablation). Reported: success rate, mean call
latency, and bytes on the wire/air. The application function never changes;
only the :class:`~repro.transport.stack.StackSpec` each row hands to
:func:`~repro.transport.stack.build_stack` does — which is the claim.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.common import Rows, check, keyed
from repro.netsim import topology
from repro.netsim.link import ETHERNET_10M
from repro.netsim.medium import BLUETOOTH, RadioProfile, WIFI_80211
from repro.netsim.network import Network
from repro.transactions.rpc import RpcEndpoint
from repro.transport.base import Transport
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import ReliabilityParams
from repro.transport.simnet import SimFabric
from repro.transport.stack import StackSpec, build_stack
from repro.util.geometry import Point

N_CALLS = 100
RELIABILITY = ReliabilityParams(ack_timeout_s=0.1, max_retries=5)


def _application(server_transport: Transport, client_transport: Transport,
                 pump: Callable[[], None], now: Callable[[], float]) -> Dict[str, Any]:
    """The network-independent part: same code for every stack."""
    server = RpcEndpoint(server_transport)
    server.expose("read", lambda seq: {"seq": seq, "value": 21.5})
    client = RpcEndpoint(client_transport, default_timeout_s=1.0)
    latencies: List[float] = []
    failures = [0]
    for i in range(N_CALLS):
        started = now()
        call = client.call(server_transport.local_address, "read", {"seq": i},
                           retries=5)
        call.on_settle(
            lambda settled, s=started: (
                latencies.append(now() - s)
                if settled.fulfilled
                else failures.__setitem__(0, failures[0] + 1)
            )
        )
    pump()
    return {
        "calls_ok": len(latencies),
        "calls_failed": failures[0],
        "mean_latency_ms": (
            round(1000 * sum(latencies) / len(latencies), 3) if latencies else 0.0
        ),
    }


def _stacks(fabric, spec: StackSpec, server: str = "server",
            client: str = "client") -> Tuple[Transport, Transport]:
    """The two sides' ``svc`` endpoints, each under the stack ``spec`` names."""
    return (build_stack(fabric.endpoint(server, "svc"), spec),
            build_stack(fabric.endpoint(client, "svc"), spec))


def run_inmemory() -> Dict[str, Any]:
    fabric = InMemoryFabric(latency_s=0.0001)
    result = _application(
        *_stacks(fabric, StackSpec(reliable=False)),
        fabric.run, fabric.sim.now,
    )
    return {"stack": "in-memory", **result, "bytes_on_wire": "n/a"}


def run_wireline() -> Dict[str, Any]:
    network = Network()
    network.add_node("server", position=Point(0, 0))
    network.add_node("client", position=Point(100000, 0))  # radio can't reach
    link = network.add_link("server", "client", ETHERNET_10M)
    fabric = SimFabric(network)
    result = _application(
        *_stacks(fabric, StackSpec(reliable=False)),
        lambda: network.sim.run(max_events=5_000_000), network.sim.now,
    )
    return {"stack": "ethernet-10M", **result,
            "bytes_on_wire": link.transmissions}


def _run_wireless(profile: RadioProfile, params: ReliabilityParams,
                  label: str) -> Dict[str, Any]:
    network = topology.star(2, radius=min(8.0, profile.range_m / 2),
                            radio_profile=profile, seed=3)
    fabric = SimFabric(network)
    result = _application(
        *_stacks(fabric, StackSpec(reliability_params=params), "leaf0", "leaf1"),
        lambda: network.sim.run(max_events=5_000_000), network.sim.now,
    )
    return {"stack": label, **result,
            "bytes_on_wire": network.medium.bytes_transmitted}


def run() -> List[Dict[str, Any]]:
    """The E12 table: the same application over four network stacks."""
    return [run_inmemory(), run_wireline(),
            _run_wireless(WIFI_80211, RELIABILITY, "802.11+reliable"),
            _run_wireless(BLUETOOTH, RELIABILITY, "bluetooth+reliable")]


def run_retransmit_ablation() -> List[Dict[str, Any]]:
    """Reliability-layer ablation on a deliberately lossy 802.11 channel."""
    lossy = RadioProfile("802.11-lossy", bandwidth_bps=11e6, range_m=100.0,
                         base_latency_s=0.001, loss_probability=0.2,
                         contention_window_s=0.002)
    policies = [
        ("no-retransmit", ReliabilityParams(ack_timeout_s=0.1, max_retries=0)),
        ("retries=2", ReliabilityParams(ack_timeout_s=0.1, max_retries=2)),
        ("retries=8", ReliabilityParams(ack_timeout_s=0.1, max_retries=8)),
        ("retries=8,backoff=1", ReliabilityParams(ack_timeout_s=0.1, max_retries=8,
                                                  backoff_factor=1.0)),
    ]
    rows = []
    for label, params in policies:
        row = _run_wireless(lossy, params, label)
        rows.append(row)
    return rows


def _all_complete(rows: Rows) -> None:
    for row in rows:
        check(row["calls_ok"] == N_CALLS,
              f"{row['stack']} completed {row['calls_ok']} of {N_CALLS} calls")


def verdict(rows: Rows) -> str:
    _all_complete(rows)
    order = ["in-memory", "ethernet-10M", "802.11+reliable", "bluetooth+reliable"]
    by_stack = keyed(rows, "stack")
    latency = [by_stack[stack]["mean_latency_ms"] for stack in order]
    check(all(a < b for a, b in zip(latency, latency[1:])),
          f"latency {latency} does not rank {' < '.join(order)}")
    return (f"holds ({N_CALLS}/{N_CALLS} calls on all {len(rows)} stacks, mean latency "
            f"{latency[0]:.4g} -> {latency[-1]:.4g} ms)")


def verdict_retransmit_ablation(rows: Rows) -> str:
    _all_complete(rows)  # layered recovery: everything completes either way
    by_policy = keyed(rows, "stack")
    none, link = by_policy["no-retransmit"], by_policy["retries=8"]
    check(link["mean_latency_ms"] < 0.3 * none["mean_latency_ms"],
          f"link-layer retransmission: {link['mean_latency_ms']} ms against "
          f"{none['mean_latency_ms']} ms without")
    return (f"holds ({none['mean_latency_ms'] / link['mean_latency_ms']:.1f}x lower "
            f"call latency with link-layer retransmission, "
            f"{link['bytes_on_wire'] / none['bytes_on_wire'] - 1:.0%} more bytes)")
