"""Topology generators.

These build :class:`~repro.netsim.network.Network` instances with standard
layouts used across the experiments: grids, stars (centralized discovery)
and chains.
All randomness is seeded.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.netsim.energy import Battery
from repro.netsim.medium import RadioProfile, WIFI_80211
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.util.geometry import Point

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
