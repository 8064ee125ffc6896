"""E7b — transaction handoff for a departing supplier (Section 3.7).

Claim under test: "if a service is about to be discontinued (e.g., a mobile
service moving out of range), then the transactions involving it should be
either completed, or transferred to different services matching the
constraints."

A consumer streams from the best-matched supplier, which is mounted on a
vehicle driving out of radio range. With the handoff manager the stream is
transferred *before* the link breaks; without it, the middleware only
reacts after deliveries start failing. Reported: deliveries, failed
deliveries, outage duration (gap between consecutive deliveries around the
departure), and final transaction state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.experiments.common import Rows, check, keyed
from repro.netsim import topology
from repro.netsim.mobility import LinearMobility
from repro.qos.spec import SupplierQoS
from repro.scheduling.handoff import HandoffManager
from repro.transactions.manager import TransactionManager
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.transaction import TransactionKind, TransactionSpec
from repro.transport.simnet import SimFabric
from repro.util.geometry import Point

SPEED_MPS = 4.0
STREAM_INTERVAL_S = 0.5
DURATION_S = 40.0


def run_one(
    with_handoff: bool, seed: int = 0, trace_path: Optional[str] = None
) -> Dict[str, Any]:
    network = topology.star(3, radius=30, seed=seed)
    if trace_path is not None:
        from repro.obs.tracing import TRACER

        TRACER.enable(seed=seed, clock=network.sim)
    try:
        return _run_one(network, with_handoff, trace_path)
    finally:
        if trace_path is not None:
            from repro.obs.export import chrome_trace, dump_trace
            from repro.obs.tracing import TRACER

            TRACER.finish_all()
            dump_trace(chrome_trace(TRACER), trace_path)
            TRACER.disable()


def _run_one(
    network, with_handoff: bool, trace_path: Optional[str] = None
) -> Dict[str, Any]:
    fabric = SimFabric(network)
    network.node("leaf0").set_mobility(
        LinearMobility(Point(30, 0), velocity=(SPEED_MPS, 0.0))
    )
    registry = RegistryServer(fabric.endpoint("hub", "registry"))
    mobile = RpcEndpoint(fabric.endpoint("leaf0", "svc"))
    mobile.expose("read", lambda **kw: "mobile")
    static = RpcEndpoint(fabric.endpoint("leaf1", "svc"))
    static.expose("read", lambda **kw: "static")
    RegistryClient(fabric.endpoint("leaf0", "reg"),
                   registry.transport.local_address).register(
        ServiceDescription("mobile", "sensor", "leaf0:svc",
                           qos=SupplierQoS(reliability=0.99)), lease_s=300)
    RegistryClient(fabric.endpoint("leaf1", "reg"),
                   registry.transport.local_address).register(
        ServiceDescription("static", "sensor", "leaf1:svc",
                           qos=SupplierQoS(reliability=0.9)), lease_s=300)
    network.sim.run_until(1.0)

    consumer = RpcEndpoint(fabric.endpoint("hub", "svc"))
    discovery = RegistryClient(fabric.endpoint("hub", "disc"),
                               registry.transport.local_address)
    manager = TransactionManager(consumer, discovery, call_timeout_s=0.5)
    handoff = None
    if with_handoff:
        handoff = HandoffManager(network, manager, "hub",
                                 warn_fraction=0.8, check_interval_s=0.5)

    delivery_times: List[float] = []
    promise = manager.establish(
        Query("sensor"),
        TransactionSpec(TransactionKind.CONTINUOUS, interval_s=STREAM_INTERVAL_S),
        on_data=lambda value, latency: delivery_times.append(network.sim.now()),
    )
    network.sim.run_until(DURATION_S)
    transaction = promise.result()

    gaps = [b - a for a, b in zip(delivery_times, delivery_times[1:])]
    worst_gap = max(gaps) if gaps else float("inf")
    return {
        "handoff": "on" if with_handoff else "off",
        "deliveries": transaction.deliveries,
        "failed_calls": transaction.failures,
        "worst_gap_s": round(worst_gap, 2),
        "transfers": transaction.transfers,
        "handoffs_initiated": handoff.handoffs_initiated if handoff else 0,
        "final_state": transaction.state.value,
        "final_supplier": transaction.supplier.service_id,
    }


def run(seed: int = 0) -> List[Dict[str, Any]]:
    """The E7b table: the same departure with and without the manager."""
    return [run_one(False, seed), run_one(True, seed)]


def verdict(rows: Rows) -> str:
    by_mode = keyed(rows, "handoff")
    on, off = by_mode["on"], by_mode["off"]
    check(on["handoffs_initiated"] >= 1, "the handoff manager never acted")
    check(on["failed_calls"] < off["failed_calls"],
          f"{on['failed_calls']} failed calls with handoff, {off['failed_calls']} without")
    check(on["worst_gap_s"] <= off["worst_gap_s"],
          f"worst gap {on['worst_gap_s']} s with handoff, {off['worst_gap_s']} s without")
    check(on["deliveries"] >= off["deliveries"], "handoff cost deliveries")
    check((on["final_supplier"], on["final_state"]) == ("static", "active"),
          f"stream ends {on['final_state']} on {on['final_supplier']}")
    return (f"holds ({on['failed_calls']} failed calls vs {off['failed_calls']}, "
            f"worst gap {on['worst_gap_s']:g} s vs {off['worst_gap_s']:g} s)")


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.exp_handoff",
        description="E7b handoff experiment; --trace exports a Chrome trace "
                    "of the with-handoff run (open it at ui.perfetto.dev).",
    )
    parser.add_argument("--trace", metavar="PATH",
                        help="export a trace of the with-handoff run to PATH")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.trace:
        result: Any = run_one(True, seed=args.seed, trace_path=args.trace)
    else:
        result = run(seed=args.seed)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
