"""Topology generators.

These build :class:`~repro.netsim.network.Network` instances with standard
layouts used across the experiments: grids, random geometric graphs (the WSN
experiments), stars (centralized discovery), and clustered deployments.
All randomness is seeded.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.netsim.energy import Battery
from repro.netsim.medium import RadioProfile, WIFI_80211
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.spatialindex import points_connected
from repro.util.geometry import Point
from repro.util.rng import split_rng

BatteryFactory = Callable[[str], Battery]


def _default_battery(_node_id: str) -> Battery:
    return Battery(math.inf)


def grid(
    rows: int,
    cols: int,
    spacing: float = 50.0,
    radio_profile: RadioProfile = WIFI_80211,
    seed: int = 0,
    battery_factory: BatteryFactory = _default_battery,
    sim: Optional[Simulator] = None,
    vectorized: None = None,
) -> Network:
    """A rows x cols grid with the given spacing; ids are ``n<row>_<col>``.

    ``vectorized`` selects nothing: it is accepted as ``None`` only, for
    callers that still pass it.
    """
    if vectorized is not None:
        raise ConfigurationError(
            f"the medium has one position index; vectorized must be None, "
            f"got {vectorized!r}"
        )
    if rows <= 0 or cols <= 0:
        raise ConfigurationError(f"grid dimensions must be positive, got {rows}x{cols}")
    network = Network(sim=sim, radio_profile=radio_profile, seed=seed)
    for r in range(rows):
        for c in range(cols):
            node_id = f"n{r}_{c}"
            network.add_node(
                node_id,
                position=Point(c * spacing, r * spacing),
                battery=battery_factory(node_id),
            )
    return network


def random_geometric(
    n: int,
    area: Tuple[float, float] = (300.0, 300.0),
    radio_profile: RadioProfile = WIFI_80211,
    seed: int = 0,
    battery_factory: BatteryFactory = _default_battery,
    sim: Optional[Simulator] = None,
    require_connected: bool = True,
    max_attempts: int = 50,
) -> Network:
    """``n`` nodes uniformly placed in ``area``; ids are ``n0..n<n-1>``.

    With ``require_connected`` (the default) placement is retried with
    perturbed seeds until the connectivity graph is a single component, so
    multi-hop experiments never start partitioned. Disconnected placements
    are rejected with a grid-accelerated point check
    (:func:`repro.netsim.spatialindex.points_connected`) before any
    network is built, so retries cost a BFS over raw coordinates rather
    than a full Network construction.
    """
    if n <= 0:
        raise ConfigurationError(f"node count must be positive, got {n}")
    for attempt in range(max_attempts):
        rng = split_rng(seed + attempt * 7919, "topology:rgg")
        coords = [
            (rng.uniform(0, area[0]), rng.uniform(0, area[1])) for _ in range(n)
        ]
        batteries = [battery_factory(f"n{i}") for i in range(n)]
        # The cheap pre-filter matches Network.is_connected only when every
        # node starts alive; depleted-at-birth batteries shrink the set of
        # nodes that must be mutually reachable, so fall through to the
        # authoritative check in that case.
        all_alive = not any(battery.depleted for battery in batteries)
        if require_connected and all_alive and not points_connected(
            coords, radio_profile.range_m
        ):
            continue
        network = Network(sim=sim, radio_profile=radio_profile, seed=seed)
        for i, (x, y) in enumerate(coords):
            network.add_node(f"n{i}", position=Point(x, y), battery=batteries[i])
        if not require_connected or network.is_connected():
            return network
    raise ConfigurationError(
        f"could not place {n} connected nodes in {area} with range "
        f"{radio_profile.range_m} after {max_attempts} attempts"
    )


def star(
    n_leaves: int,
    radius: float = 40.0,
    radio_profile: RadioProfile = WIFI_80211,
    seed: int = 0,
    battery_factory: BatteryFactory = _default_battery,
    sim: Optional[Simulator] = None,
) -> Network:
    """A hub (``hub``) with ``n_leaves`` leaves (``leaf0..``) on a circle."""
    if n_leaves <= 0:
        raise ConfigurationError(f"leaf count must be positive, got {n_leaves}")
    network = Network(sim=sim, radio_profile=radio_profile, seed=seed)
    network.add_node("hub", position=Point(0.0, 0.0), battery=battery_factory("hub"))
    for i in range(n_leaves):
        angle = 2 * math.pi * i / n_leaves
        network.add_node(
            f"leaf{i}",
            position=Point(radius * math.cos(angle), radius * math.sin(angle)),
            battery=battery_factory(f"leaf{i}"),
        )
    return network


def clustered(
    n_clusters: int,
    nodes_per_cluster: int,
    cluster_radius: float = 8.0,
    cluster_spacing: float = 80.0,
    radio_profile: RadioProfile = WIFI_80211,
    seed: int = 0,
    battery_factory: BatteryFactory = _default_battery,
    sim: Optional[Simulator] = None,
) -> Network:
    """Clusters of nodes (Bluetooth-piconet-style groups) on a line.

    Cluster ``k`` has a head ``c<k>_head`` at the cluster center and members
    ``c<k>_m<i>`` scattered within ``cluster_radius`` of it.
    """
    if n_clusters <= 0 or nodes_per_cluster <= 0:
        raise ConfigurationError("cluster counts must be positive")
    rng = split_rng(seed, "topology:clustered")
    network = Network(sim=sim, radio_profile=radio_profile, seed=seed)
    for k in range(n_clusters):
        center = Point(k * cluster_spacing, 0.0)
        head_id = f"c{k}_head"
        network.add_node(head_id, position=center, battery=battery_factory(head_id))
        for i in range(nodes_per_cluster):
            angle = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0, cluster_radius)
            member_id = f"c{k}_m{i}"
            network.add_node(
                member_id,
                position=Point(center.x + r * math.cos(angle), center.y + r * math.sin(angle)),
                battery=battery_factory(member_id),
            )
    return network


def linear_chain(
    n: int,
    spacing: float = 60.0,
    radio_profile: RadioProfile = WIFI_80211,
    seed: int = 0,
    battery_factory: BatteryFactory = _default_battery,
    sim: Optional[Simulator] = None,
) -> Network:
    """``n`` nodes in a line, each in range only of its neighbors (multi-hop)."""
    if n <= 0:
        raise ConfigurationError(f"node count must be positive, got {n}")
    network = Network(sim=sim, radio_profile=radio_profile, seed=seed)
    for i in range(n):
        node_id = f"n{i}"
        network.add_node(
            node_id, position=Point(i * spacing, 0.0), battery=battery_factory(node_id)
        )
    return network
