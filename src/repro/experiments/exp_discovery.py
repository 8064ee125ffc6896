"""E2 — service discovery modes vs network size and churn (Section 3.3).

Claim under test: "These [service discovery mechanisms] can be completely
distributed, completely centralized, or a mixture of the two. The choice of
mechanism depends on the size of the network, the communication overhead
that can be tolerated, and how frequently the available components change."

The harness runs the same workload — suppliers advertising, one consumer
looking up every couple of seconds, optional churn killing and reviving
suppliers — under the centralized registry, distributed flooding (with and
without advertisement caching — the ablation), and reports message
overhead, lookup latency, and staleness (returned services that are
actually dead).

E2b puts the section's next sentence — "to further increase scalability,
mirroring approaches can be introduced" — on the same star and lookup
loop: one registry against a :class:`MirrorGroup` of three, the suppliers
and the consumer's lookups spread over the mirrors by index.
"""

from __future__ import annotations

from itertools import cycle
from typing import Any, Dict, List

from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import Query
from repro.discovery.mirror import MirrorGroup
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.experiments.common import Rows, check, keyed
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.qos.spec import SupplierQoS
from repro.transport.simnet import SimFabric

LOOKUP_INTERVAL_S = 2.0
DURATION_S = 60.0
LEASE_S = 6.0
ADVERT_INTERVAL_S = 6.0
ADVERT_LEASE_S = 8.0
MIRROR_SUPPLIERS = 30  # E2's larger star


def _make_description(i: int) -> ServiceDescription:
    return ServiceDescription(
        f"s{i}", "svc", f"leaf{i}:services", qos=SupplierQoS(reliability=0.95)
    )


def _run_lookups(network, issue_lookup, suppliers) -> Dict[str, Any]:
    """Drive periodic lookups; collect latency and staleness."""
    latencies: List[float] = []
    stale = 0
    returned = 0
    lookups = 0

    def do_lookup() -> None:
        nonlocal lookups
        lookups += 1
        started = network.sim.now()
        promise = issue_lookup()

        def settle(settled) -> None:
            nonlocal stale, returned
            if settled.rejected:
                return
            latencies.append(network.sim.now() - started)
            for description in settled.result():
                returned += 1
                node_id = description.provider.split(":", 1)[0]
                if node_id in network and not network.node(node_id).alive:
                    stale += 1

        promise.on_settle(settle)

    network.sim.schedule_every(LOOKUP_INTERVAL_S, do_lookup)
    network.sim.run_until(DURATION_S)
    return {
        "lookups": lookups,
        "answered": len(latencies),
        "mean_latency_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "stale_fraction": stale / returned if returned else 0.0,
    }


def run_centralized(n_suppliers: int, churn_rate: float, seed: int = 0) -> Dict[str, Any]:
    network = topology.star(n_suppliers + 1, radius=40, seed=seed)
    fabric = SimFabric(network)
    server = RegistryServer(fabric.endpoint("hub", "registry"))
    clients = []
    for i in range(1, n_suppliers + 1):
        client = RegistryClient(fabric.endpoint(f"leaf{i}", "disc"),
                                server.transport.local_address)
        client.register(_make_description(i), lease_s=LEASE_S)
        clients.append(client)
    consumer = RegistryClient(fabric.endpoint("leaf0", "disc"),
                              server.transport.local_address)
    if churn_rate > 0:
        FailureInjector(network, seed=seed).random_churn(
            [f"leaf{i}" for i in range(1, n_suppliers + 1)],
            rate_per_node_s=churn_rate, downtime_s=8.0, until=DURATION_S,
        )
    stats = _run_lookups(
        network,
        lambda: consumer.lookup(Query("svc", max_results=n_suppliers + 1)),
        clients,
    )
    messages = (
        server.transport.sent_messages
        + consumer.transport.sent_messages
        + sum(c.transport.sent_messages for c in clients)
    )
    return {"mode": "centralized", **stats, "messages": messages}


def run_mirror_group(n_mirrors: int, seed: int = 0) -> Dict[str, Any]:
    """The centralized workload against ``n_mirrors`` replicating registries
    (the hub, then one extra leaf each); one mirror is ``run_centralized``."""
    n_suppliers = MIRROR_SUPPLIERS
    network = topology.star(n_suppliers + n_mirrors, radius=40, seed=seed)
    fabric = SimFabric(network)
    hosts = ["hub"] + [f"leaf{n_suppliers + i}" for i in range(1, n_mirrors)]
    group = MirrorGroup([fabric.endpoint(host, "registry") for host in hosts])
    clients = []
    for i in range(1, n_suppliers + 1):
        client = group.client(fabric.endpoint(f"leaf{i}", "disc"), i % n_mirrors)
        client.register(_make_description(i), lease_s=LEASE_S)
        clients.append(client)
    consumers = [group.client(fabric.endpoint("leaf0", f"disc{m}"), m)
                 for m in range(n_mirrors)]
    turn = cycle(consumers)
    stats = _run_lookups(
        network,
        lambda: next(turn).lookup(Query("svc", max_results=n_suppliers + 1)),
        clients,
    )
    del stats["stale_fraction"]  # no churn: nothing can be stale
    endpoints = group.servers + consumers + clients
    return {
        "mirrors": n_mirrors, **stats,
        "max_lookups_served": max(s.lookups_served for s in group.servers),
        "messages": sum(e.transport.sent_messages for e in endpoints),
        "consistent": group.consistent(),
    }


def run_distributed(
    n_suppliers: int, churn_rate: float, use_cache: bool, seed: int = 0
) -> Dict[str, Any]:
    network = topology.star(n_suppliers + 1, radius=40, seed=seed)
    fabric = SimFabric(network)
    agents = {}
    for i in range(n_suppliers + 1):
        node_id = "leaf0" if i == 0 else f"leaf{i}"
        agents[node_id] = DistributedDiscovery(
            fabric.endpoint(node_id, "disc"), ttl=2,
            advertise_interval_s=ADVERT_INTERVAL_S,
            advert_lease_s=ADVERT_LEASE_S,
            collect_window_s=1.0, use_cache=use_cache,
        )
    for i in range(1, n_suppliers + 1):
        agents[f"leaf{i}"].advertise(_make_description(i))
    if churn_rate > 0:
        FailureInjector(network, seed=seed).random_churn(
            [f"leaf{i}" for i in range(1, n_suppliers + 1)],
            rate_per_node_s=churn_rate, downtime_s=8.0, until=DURATION_S,
        )
    stats = _run_lookups(
        network,
        lambda: agents["leaf0"].lookup(Query("svc", max_results=n_suppliers + 1)),
        None,
    )
    messages = sum(agent.total_messages_sent() for agent in agents.values())
    mode = "distributed+cache" if use_cache else "distributed"
    return {"mode": mode, **stats, "messages": messages}


def run(
    sizes=(10, 30),
    churn_rates=(0.0, 0.02),
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """The E2 table: one row per (mode, size, churn)."""
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        for churn in churn_rates:
            for result in (
                run_centralized(n, churn, seed),
                run_distributed(n, churn, use_cache=True, seed=seed),
                run_distributed(n, churn, use_cache=False, seed=seed),
            ):
                result_row = {"suppliers": n, "churn_per_s": churn, **result}
                result_row["msgs_per_lookup"] = (
                    result["messages"] / result["lookups"]
                    if result["lookups"] else 0.0
                )
                rows.append(result_row)
    return rows


def run_mirrored(seed: int = 0) -> List[Dict[str, Any]]:
    """The E2b table: directory load with one registry and with three."""
    return [run_mirror_group(1, seed=seed), run_mirror_group(3, seed=seed)]


def _all_answered(rows: Rows) -> None:
    for row in rows:  # at most the two lookups still in flight at the end
        check(row["answered"] >= row["lookups"] - 2,
              f"{row} answered {row['answered']} of {row['lookups']} lookups")


def verdict(rows: Rows) -> str:
    at = keyed(rows, "mode", "suppliers", "churn_per_s")
    sizes = sorted({row["suppliers"] for row in rows})
    churn = max(row["churn_per_s"] for row in rows)
    small, large = sizes[0], sizes[-1]
    _all_answered(rows)
    # Overhead: flooding blows up with size, the directory does not.
    growth = {mode: at[mode, large, 0.0]["messages"] / at[mode, small, 0.0]["messages"]
              for mode in ("centralized", "distributed")}
    check(growth["distributed"] > growth["centralized"],
          f"{small} -> {large} suppliers: flooding grew {growth['distributed']:.1f}x, "
          f"the directory {growth['centralized']:.1f}x")
    # Staleness under churn: cached adverts go stale; cache-less floods
    # reflect the live truth.
    cached = at["distributed+cache", large, churn]["stale_fraction"]
    fresh = at["distributed", large, churn]["stale_fraction"]
    check(cached >= fresh, f"cached adverts ({cached:.3f} stale) fresher than "
                           f"floods ({fresh:.3f})")
    return (f"holds ({small} -> {large} suppliers: flooding {growth['distributed']:.1f}x "
            f"the messages, the directory {growth['centralized']:.1f}x; under churn "
            f"cached adverts {cached:.3f} stale, fresh floods {fresh:.3f})")


def verdict_mirrored(rows: Rows) -> str:
    one, three = rows
    check((one["mirrors"], three["mirrors"]) == (1, 3),
          f"mirror counts {one['mirrors']}, {three['mirrors']}")
    _all_answered(rows)
    for row in rows:
        check(row["consistent"] is True,
              f"{row['mirrors']} mirror(s) end holding different service sets")
    check(three["max_lookups_served"] * 2 < one["max_lookups_served"],
          f"busiest of three mirrors serves {three['max_lookups_served']} lookups, "
          f"the single registry {one['max_lookups_served']}")
    check(three["messages"] > one["messages"], "replication came free")
    return (f"holds ({one['max_lookups_served'] / three['max_lookups_served']:.1f}x "
            f"less lookup load per directory, "
            f"{three['messages'] / one['messages']:.1f}x the messages)")
