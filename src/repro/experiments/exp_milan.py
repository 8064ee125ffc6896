"""E10 — the MiLAN headline: QoS-aware selection extends lifetime (§4).

Claim under test: "It is the job of MiLAN to identify these feasible sets
and to determine which set optimizes the tradeoff between application
performance and network cost (e.g., energy dissipation)" — and that doing
so beats naive configurations.

The paper's health-monitor application (three states over three vitals)
runs against a battery-powered sensor fleet until its QoS becomes
unsatisfiable. Selection policies compared:

* ``all-on`` — every sensor streams (no middleware; the plug-and-play
  default);
* ``random-feasible`` — a feasible set, but chosen blindly;
* ``greedy-reliability`` — maximize accuracy, ignore energy;
* ``milan-max-lifetime`` and ``milan-balanced`` — the real selectors.

Reported: application lifetime, mean reliability surplus over the run, and
reconfiguration count. ``run_ablation`` additionally sweeps the feasible-
set enumeration cap (the DESIGN.md ablation).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.core.configurator import NetworkConfiguration
from repro.core.feasibility import (
    combined_reliability,
    minimal_feasible_sets,
    satisfies,
)
from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.core.selection import Columns
from repro.core.sensors import SensorInfo
from repro.experiments.common import Rows, check
from repro.util.rng import split_rng

STEP_S = 5.0
MAX_TIME_S = 200_000.0

#: The patient's day: mostly rest, regular exercise, occasional distress.
#: Cycling states is what separates the selection strategies — in a single
#: state the minimal sets all share the same bottleneck sensor pool.
STATE_SCHEDULE = [("rest", 120.0), ("exercise", 60.0), ("rest", 120.0),
                  ("distress", 20.0)]
SCHEDULE_PERIOD_S = sum(duration for _state, duration in STATE_SCHEDULE)


def _state_at(time_s: float) -> str:
    phase = time_s % SCHEDULE_PERIOD_S
    for state, duration in STATE_SCHEDULE:
        if phase < duration:
            return state
        phase -= duration
    return STATE_SCHEDULE[-1][0]


def fleet() -> List[SensorInfo]:
    return [
        SensorInfo("bp-cuff", {"blood_pressure": 0.95}, 0.020, 10.0),
        SensorInfo("bp-wrist", {"blood_pressure": 0.75}, 0.008, 10.0),
        SensorInfo("bp-ankle", {"blood_pressure": 0.70}, 0.007, 9.0),
        SensorInfo("ecg", {"heart_rate": 0.95, "blood_pressure": 0.30}, 0.030, 12.0),
        SensorInfo("ppg", {"heart_rate": 0.80, "oxygen_saturation": 0.90}, 0.010, 8.0),
        SensorInfo("spo2", {"oxygen_saturation": 0.85}, 0.012, 9.0),
        SensorInfo("spo2-b", {"oxygen_saturation": 0.80}, 0.009, 7.0),
        SensorInfo("hr-strap", {"heart_rate": 0.85}, 0.006, 6.0),
        SensorInfo("hr-watch", {"heart_rate": 0.70}, 0.005, 6.0),
    ]


def _random_strategy(seed: int):
    rng = split_rng(seed, "milan-random")

    def strategy(columns: Columns) -> int:
        sets = columns.sets
        return rng.choice(sorted(range(len(sets)), key=lambda i: sorted(sets[i])))

    return strategy


def _build(policy_name: str, seed: int) -> Milan:
    policy = health_monitor_policy()
    if policy_name == "milan-balanced":
        pass  # the default balanced(0.7)
    elif policy_name == "milan-max-lifetime":
        policy.selection = "max_lifetime"
    elif policy_name == "greedy-reliability":
        policy.selection = "max_reliability"
    elif policy_name == "random-feasible":
        policy.selection = _random_strategy(seed)
    milan = Milan(policy)
    for sensor in fleet():
        milan.add_sensor(sensor)
    return milan


def run_one(policy_name: str, seed: int = 0) -> Dict[str, Any]:
    milan = _build(policy_name, seed)
    all_on = policy_name == "all-on"
    if all_on:
        milan.auto_reconfigure = False
        milan.current_configuration = NetworkConfiguration(
            frozenset(milan.sensors), frozenset(), frozenset(), None, frozenset()
        )
    elapsed = 0.0
    surplus_samples: List[float] = []
    while elapsed < MAX_TIME_S:
        wanted_state = _state_at(elapsed)
        if milan.state != wanted_state:
            milan.set_state(wanted_state)
        alive = [s for s in milan.sensors.values() if not s.depleted]
        requirements = milan.requirements()
        if not satisfies(alive, requirements):
            break  # nothing could satisfy the app: true end of life
        if not all_on:
            # MiLAN optimizes continuously: residual-energy changes can make
            # a different set optimal even while the current one still works.
            milan.reconfigure()
        active = [milan.sensors[sid] for sid in milan.active_sensor_ids()
                  if sid in milan.sensors and not milan.sensors[sid].depleted]
        if requirements:
            surplus = min(
                combined_reliability(active, variable) - required
                for variable, required in requirements.items()
            )
            surplus_samples.append(surplus)
        milan.advance_time(STEP_S)
        elapsed += STEP_S
    stats = milan.engine.stats() if milan.engine is not None else {}
    lookups = stats.get("feasibility_hits", 0) + stats.get("feasibility_misses", 0)
    return {
        "policy": policy_name,
        "lifetime_s": elapsed,
        "mean_reliability_surplus": (
            round(sum(surplus_samples) / len(surplus_samples), 4)
            if surplus_samples else 0.0
        ),
        "reconfigurations": milan.reconfigurations,
        "cache_hit_rate": (
            round(stats["feasibility_hits"] / lookups, 3) if lookups else 0.0
        ),
    }


def run(seed: int = 0) -> List[Dict[str, Any]]:
    """The E10 table: lifetime per selection policy, worst first."""
    rows = [
        run_one("all-on", seed),
        run_one("random-feasible", seed),
        run_one("greedy-reliability", seed),
        run_one("milan-max-lifetime", seed),
        run_one("milan-balanced", seed),
    ]
    baseline = rows[0]["lifetime_s"] or 1.0
    for row in rows:
        row["vs_all_on"] = f"{row['lifetime_s'] / baseline:.2f}x"
    return rows


def verdict(rows: Rows) -> str:
    lifetime = {row["policy"]: row["lifetime_s"] for row in rows}
    surplus = {row["policy"]: row["mean_reliability_surplus"] for row in rows}
    all_on = lifetime["all-on"]
    for selector in ("milan-max-lifetime", "milan-balanced"):
        check(lifetime[selector] > 3.0 * all_on,
              f"{selector} lives {lifetime[selector]} s, all-on {all_on} s")
    for naive in ("random-feasible", "greedy-reliability"):
        check(lifetime["milan-max-lifetime"] > lifetime[naive],
              f"{naive} ({lifetime[naive]} s) outlives milan-max-lifetime")
    # Balanced buys surplus with a little lifetime.
    check(surplus["milan-balanced"] >= surplus["milan-max-lifetime"],
          "milan-balanced has less reliability surplus than milan-max-lifetime")
    return (f"holds ({lifetime['milan-max-lifetime'] / all_on:.2f}x vs all-on, "
            f"greedy-reliability {lifetime['greedy-reliability'] / all_on:.2f}x)")


def run_traced(seed: int = 0, export_path: Optional[str] = None) -> Dict[str, Any]:
    """A fully traced end-to-end run: MiLAN driving a multi-hop network.

    A four-node chain (``n0 - n1 - n2 - n3``) runs DSR routing; the
    registry lives on ``n1``, a vitals supplier on ``n3``, and the consumer
    on ``n0`` streams from it through a continuous transaction while the
    MiLAN instance cycles application states. With :data:`~repro.obs.
    tracing.TRACER` enabled for the duration, one run produces causally
    linked spans from every subsystem — transport, routing, discovery, RPC,
    transactions, and MiLAN — exportable as Chrome trace JSON.
    """
    from repro.discovery.description import ServiceDescription
    from repro.discovery.matching import Query
    from repro.discovery.registry import RegistryClient, RegistryServer
    from repro.netsim import topology
    from repro.obs.export import chrome_trace, dump_trace, subsystems, validate_chrome_trace
    from repro.obs.tracing import TRACER
    from repro.routing.base import build_routed_network
    from repro.routing.dsr import DsrRouter
    from repro.transactions.manager import TransactionManager
    from repro.transactions.rpc import RpcEndpoint
    from repro.transactions.transaction import TransactionKind, TransactionSpec
    from repro.transport.simnet import SimFabric

    network = topology.linear_chain(4, spacing=60, seed=seed)
    TRACER.enable(seed=seed, clock=network.sim)
    try:
        fabric = SimFabric(network)
        agents = build_routed_network(fabric, DsrRouter)

        registry = RegistryServer(agents["n1"].open_port("registry"))
        registry_address = registry.transport.local_address

        supplier = RpcEndpoint(agents["n3"].open_port("svc"))
        supplier.expose("read", lambda **kw: {"bp": 120, "hr": 60})
        RegistryClient(agents["n3"].open_port("reg"), registry_address).register(
            ServiceDescription("vitals-far", "sensor", "n3:svc"), lease_s=300
        )
        network.sim.run_until(1.0)

        milan = _build("milan-balanced", seed)

        consumer = RpcEndpoint(agents["n0"].open_port("svc"))
        discovery = RegistryClient(agents["n0"].open_port("disc"), registry_address)
        manager = TransactionManager(consumer, discovery, call_timeout_s=0.5)

        deliveries: List[float] = []
        promise = manager.establish(
            Query("sensor"),
            TransactionSpec(TransactionKind.CONTINUOUS, interval_s=0.5),
            on_data=lambda value, latency: deliveries.append(network.sim.now()),
        )
        for when, state in ((2.0, "exercise"), (4.0, "distress"), (6.0, "rest")):
            network.sim.schedule_at(when, milan.set_state, state)
        network.sim.run_until(8.0)
        transaction = promise.result()
        manager.stop(transaction)
        network.sim.run_until(9.0)

        TRACER.finish_all()
        trace = chrome_trace(TRACER)
        if export_path is not None:
            dump_trace(trace, export_path)
        return {
            "seed": seed,
            "spans": len(TRACER.spans),
            "deliveries": len(deliveries),
            "final_state": transaction.state.value,
            "subsystems": sorted(subsystems(trace)),
            "trace_path": export_path,
            "valid": not validate_chrome_trace(trace),
        }
    finally:
        TRACER.disable()


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.exp_milan",
        description="E10 MiLAN experiment; --trace runs the instrumented "
                    "network scenario and exports a Chrome trace.",
    )
    parser.add_argument("--trace", metavar="PATH",
                        help="run the traced scenario, exporting to PATH")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.trace:
        result = run_traced(seed=args.seed, export_path=args.trace)
    else:
        result = run(seed=args.seed)
    print(json.dumps(result, indent=2))
    return 0


def run_ablation(caps=(4, 32, 256)) -> List[Dict[str, Any]]:
    """Feasible-set enumeration cap: solution quality vs search cost."""
    sensors = fleet()
    requirements = health_monitor_policy().requirements.for_state("distress")
    rows: List[Dict[str, Any]] = []
    for cap in caps:
        started = time.perf_counter()
        sets = minimal_feasible_sets(sensors, requirements, max_sets=cap)
        wall_ms = (time.perf_counter() - started) * 1000
        best_size = min((len(s) for s in sets), default=0)
        rows.append(
            {
                "max_sets_cap": cap,
                "sets_found": len(sets),
                "smallest_set": best_size,
                "enumeration_ms": round(wall_ms, 3),
            }
        )
    return rows


def verdict_ablation(rows: Rows) -> str:
    sizes = {row["smallest_set"] for row in rows}
    check(len(sizes) == 1, f"the cap changes the smallest feasible set: {sorted(sizes)}")
    caps = "/".join(str(row["max_sets_cap"]) for row in rows)
    return f"holds (smallest feasible set has {sizes.pop()} sensors at every cap, {caps})"


if __name__ == "__main__":
    raise SystemExit(main())
