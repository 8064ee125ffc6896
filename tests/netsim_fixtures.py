"""Test-side helpers over the simulated network.

``random_geometric`` places nodes uniformly in an area and retries until
the connectivity graph is one component, so a multi-hop test never starts
partitioned; ``is_connected`` is the check a built network passes.
``points_connected`` rejects a disconnected placement from raw
coordinates, deciding range with the medium's squared compare, before a
network is built.
``set_position`` pins a node where a test wants it, ``detach`` takes one
off the medium and ``unindex`` off a position index; ``recharge`` and
``serialization_delay`` are the energy and airtime arithmetic tests check
against.
"""

from math import floor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.netsim.energy import Battery
from repro.netsim.medium import RadioProfile, WIFI_80211, WirelessMedium
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.spatialindex import _SLIVER, PositionIndex
from repro.util.geometry import Point
from repro.util.rng import split_rng

MAX_ATTEMPTS = 50


def random_geometric(
    n: int,
    area: Tuple[float, float] = (300.0, 300.0),
    radio_profile: RadioProfile = WIFI_80211,
    seed: int = 0,
    require_connected: bool = True,
) -> Network:
    """``n`` nodes uniformly placed in ``area``; ids are ``n0..n<n-1>``.

    With ``require_connected`` (the default) placement is retried with
    perturbed seeds until the connectivity graph is a single component.
    """
    for attempt in range(MAX_ATTEMPTS):
        rng = split_rng(seed + attempt * 7919, "topology:rgg")
        coords = [
            (rng.uniform(0, area[0]), rng.uniform(0, area[1])) for _ in range(n)
        ]
        if require_connected and not points_connected(
                coords, radio_profile.range_m):
            continue
        network = Network(radio_profile=radio_profile, seed=seed)
        for i, (x, y) in enumerate(coords):
            network.add_node(f"n{i}", position=Point(x, y))
        return network
    raise ConfigurationError(
        f"could not place {n} connected nodes in {area} with range "
        f"{radio_profile.range_m} after {MAX_ATTEMPTS} attempts"
    )


def is_connected(network: Network,
                 node_ids: Optional[Iterable[str]] = None) -> bool:
    """True if the given alive nodes (default: all) are mutually reachable."""
    targets = {node.node_id for node in network.nodes() if node.alive}
    if node_ids is not None:
        targets &= set(node_ids)
    if len(targets) <= 1:
        return True
    return targets <= network.reachable_from(next(iter(targets)))


def points_connected(points: Sequence[Tuple[float, float]], radius: float) -> bool:
    """True when the geometric graph over ``points`` (edges at distance
    <= ``radius``, by the index's squared compare) forms a single component.

    A BFS over a grid of ``radius``-sized cells. Zero or one point counts
    as connected.
    """
    n = len(points)
    if n <= 1:
        return True
    if not radius > 0:
        return False
    cells: Dict[Tuple[int, int], List[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((int(x // radius), int(y // radius)), []).append(i)
    r2 = radius * radius
    seen = [False] * n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        i = stack.pop()
        x, y = points[i]
        for cx in range(floor(x / radius - 1.0 - _SLIVER),
                        floor(x / radius + 1.0 + _SLIVER) + 1):
            for cy in range(floor(y / radius - 1.0 - _SLIVER),
                            floor(y / radius + 1.0 + _SLIVER) + 1):
                for k in cells.get((cx, cy), ()):
                    if not seen[k]:
                        px, py = points[k]
                        dx = px - x
                        dy = py - y
                        if dx * dx + dy * dy <= r2:
                            seen[k] = True
                            reached += 1
                            stack.append(k)
    return reached == n


def set_position(node: Node, position: Point) -> None:
    """Pin ``node`` to a static position, dropping any mobility model."""
    node._home_position = position
    node._mobility = None
    node._moved()


def detach(medium: WirelessMedium, node_id: str) -> None:
    """Take ``node_id`` off ``medium``; an unknown id is ignored."""
    node = medium._nodes.pop(node_id, None)
    if node is None:
        return
    node._medium = None
    unindex(medium._index, node_id)
    medium._static_neighbourhoods.clear()


def unindex(index: PositionIndex, node_id: str) -> None:
    """Drop ``node_id`` from ``index``; an unknown id is ignored."""
    if index._node_of.pop(node_id, None) is not None:
        index._declassify(node_id)


def recharge(battery: Battery, joules: float) -> None:
    """Add energy up to capacity, as an energy-harvesting node would."""
    if not joules >= 0.0:
        raise ConfigurationError(f"cannot recharge negative energy {joules!r}")
    battery.remaining = min(battery.capacity, battery.remaining + joules)


def serialization_delay(profile: RadioProfile, size_bits: int) -> float:
    """Seconds a frame of ``size_bits`` occupies the radio."""
    return size_bits / profile.bandwidth_bps

