"""E5 — routing strategies and network lifetime (Sections 3.5 and 4).

Claim under test: routing inside the middleware can exploit low-level
information (residual energy) that per-application routing cannot, and
doing so "increase[s] the lifetime of a network".

A battery-powered grid relays periodic reports from the far corner to a
mains-powered sink under flooding, shortest-hop, and energy-aware routing
(alpha sweep as the ablation). Reported: packets delivered, time to first
node death, time until the source is cut off, and residual energy.

E5b runs the same grid, source, sink and report schedule under the two
table-free modes: greedy geographic forwarding (positions only) and
data-centric diffusion (the sink names the data; nobody names a node).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import Rows, check, keyed
from repro.netsim import topology
from repro.netsim.energy import Battery, mains_battery
from repro.routing.base import build_routed_network
from repro.routing.datacentric import DataCentricAgent
from repro.routing.energyaware import EnergyAwareRouter
from repro.routing.flooding import FloodingRouter
from repro.routing.geographic import GeographicRouter
from repro.routing.linkstate import LinkStateRouter
from repro.transport.base import Address
from repro.transport.simnet import SimFabric

GRID = 5
BATTERY_J = 0.03
REPORT_INTERVAL_S = 1.0
MAX_TIME_S = 600.0
SINK = "n0_0"
SOURCE = f"n{GRID - 1}_{GRID - 1}"
INTEREST_REFRESH_S = 10.0  # under the 30 s gradient lifetime


def _router_factory(kind: str, network, alpha: float):
    if kind == "flooding":
        return lambda nid: FloodingRouter()
    if kind == "shortest-hop":
        return lambda nid: LinkStateRouter(network, nid, refresh_interval_s=1.0)
    if kind == "energy-aware":
        return lambda nid: EnergyAwareRouter(network, nid, alpha=alpha,
                                             refresh_interval_s=1.0)
    if kind == "geographic":
        return lambda nid: GeographicRouter(network, nid)
    raise ValueError(f"unknown router kind {kind!r}")


def _battery_grid(seed: int):
    return topology.grid(
        GRID, GRID, spacing=55, seed=seed,
        battery_factory=lambda nid: (
            mains_battery() if nid == SINK else Battery(BATTERY_J)
        ),
    )


def _lifetime(network, label: str, report, delivered: list) -> Dict[str, Any]:
    """Report every second until the source is cut off; the E5 columns."""
    network.sim.schedule_every(REPORT_INTERVAL_S, report)

    first_death = None
    cut_off = MAX_TIME_S
    time = 0.0
    while time < MAX_TIME_S:
        network.sim.run_for(5.0)
        time += 5.0
        if first_death is None and network.first_dead_node() is not None:
            first_death = time
        if SOURCE not in network.reachable_from(SINK):
            cut_off = time
            break
    return {
        "router": label,
        "delivered": len(delivered),
        "first_death_s": first_death if first_death is not None else time,
        "source_cut_off_s": cut_off,
        "energy_left_j": round(network.total_energy_remaining(), 4),
    }


def run_one(kind: str, alpha: float = 2.0, seed: int = 0) -> Dict[str, Any]:
    network = _battery_grid(seed)
    fabric = SimFabric(network)
    agents = build_routed_network(fabric, _router_factory(kind, network, alpha))
    sink = agents[SINK].open_port("data")
    delivered = []
    sink.set_receiver(lambda src, data: delivered.append(network.sim.now()))
    source = agents[SOURCE].open_port("data")

    def report() -> None:
        if network.node(SOURCE).alive:
            source.send(Address(SINK, "data"), bytes(64))

    label = kind if kind != "energy-aware" else f"energy-aware(a={alpha:g})"
    return _lifetime(network, label, report, delivered)


def run_datacentric(seed: int = 0) -> Dict[str, Any]:
    """The E5 deployment with one diffusion agent per node and no router."""
    network = _battery_grid(seed)
    fabric = SimFabric(network)
    agents = {nid: DataCentricAgent(fabric, nid) for nid in network.node_ids()}
    delivered = []
    agents[SINK].subscribe(
        "report", lambda name, value, origin: delivered.append(network.sim.now()),
        refresh_interval_s=INTEREST_REFRESH_S,
    )

    def report() -> None:
        if network.node(SOURCE).alive:
            agents[SOURCE].publish("report", bytes(64))

    return _lifetime(network, "data-centric", report, delivered)


def run(alphas=(0.0, 2.0, 4.0), seed: int = 0) -> List[Dict[str, Any]]:
    """The E5 table: flooding and shortest-hop baselines plus the
    energy-aware alpha sweep."""
    rows = [run_one("flooding", seed=seed), run_one("shortest-hop", seed=seed)]
    for alpha in alphas:
        rows.append(run_one("energy-aware", alpha=alpha, seed=seed))
    return rows


def run_tablefree(seed: int = 0) -> List[Dict[str, Any]]:
    """The E5b table: routing with no routing table, shortest-hop beside it."""
    return [run_one("shortest-hop", seed=seed), run_one("geographic", seed=seed),
            run_datacentric(seed)]


def verdict(rows: Rows) -> str:
    by_router = keyed(rows, "router")
    flooding, shortest = by_router["flooding"], by_router["shortest-hop"]
    energy = by_router["energy-aware(a=2)"]
    for column in ("source_cut_off_s", "delivered"):
        check(flooding[column] < shortest[column] < energy[column],
              f"{column} does not order flooding < shortest-hop < energy-aware: "
              f"{flooding[column]}, {shortest[column]}, {energy[column]}")
    # alpha=0 degenerates to (energy-blind) min-transmission-cost routing.
    blind = by_router["energy-aware(a=0)"]["source_cut_off_s"]
    check(blind <= energy["source_cut_off_s"],
          f"energy-blind routing ({blind} s) outlived energy-aware")
    ratio = energy["source_cut_off_s"] / shortest["source_cut_off_s"]
    return (f"holds ({ratio:.1f}x vs shortest-hop, "
            f"{energy['source_cut_off_s'] / flooding['source_cut_off_s']:.1f}x vs flooding)")


def verdict_tablefree(rows: Rows) -> str:
    hop, geographic, diffusion = rows
    check((hop["router"], geographic["router"], diffusion["router"])
          == ("shortest-hop", "geographic", "data-centric"),
          f"rows are {[row['router'] for row in rows]}")
    for column in ("delivered", "source_cut_off_s", "energy_left_j"):
        check(geographic[column] == hop[column],
              f"geographic {column} {geographic[column]} != shortest-hop {hop[column]}")
    check(0 < diffusion["delivered"] <= diffusion["source_cut_off_s"],
          f"data-centric delivered {diffusion['delivered']} reports in "
          f"{diffusion['source_cut_off_s']} s")
    return (f"works; geographic matches shortest-hop on a void-free grid, "
            f"data-centric delivers {diffusion['delivered']} reports in "
            f"{diffusion['source_cut_off_s']:g} s")
