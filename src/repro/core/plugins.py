"""Network plugins: from application-feasible to network-feasible sets.

Section 4: MiLAN "must then configure the network (e.g., determine which
components should send data, ... and which nodes should play special roles
in the network, such as Bluetooth masters)", and it is "applicable to
multiple specific technologies (e.g., Bluetooth or 802.11)".

A plugin knows one technology's constraints and filters candidate sensor
sets accordingly. Plugins compose: a set is network-feasible when every
installed plugin accepts it. The tree ships the Bluetooth plugin; any
object with a ``name`` and an ``accepts`` (:class:`NetworkPlugin`) is one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Protocol, Sequence, runtime_checkable

from repro.core.sensors import SensorInfo
from repro.errors import ConfigurationError
from repro.netsim.network import Network

SensorSet = FrozenSet[str]


class NetworkContext:
    """What plugins may inspect when judging a set."""

    __slots__ = ("sensors", "network", "sink_node_id")

    def __init__(self, sensors: Optional[Dict[str, SensorInfo]] = None,
                 network: Optional[Network] = None,
                 sink_node_id: Optional[str] = None) -> None:
        self.sensors = {} if sensors is None else sensors
        self.network = network  # live topology, when simulating one
        self.sink_node_id = sink_node_id  # where data must arrive

    def info(self, sensor_id: str) -> SensorInfo:
        try:
            return self.sensors[sensor_id]
        except KeyError:
            raise ConfigurationError(f"unknown sensor {sensor_id!r}") from None


@runtime_checkable
class NetworkPlugin(Protocol):
    """One technology's feasibility judgment."""

    name: str

    def accepts(self, sensor_set: SensorSet, context: NetworkContext) -> bool:
        ...


class BluetoothPlugin:
    """Piconet constraint: a master serves at most ``max_active_slaves``
    active slaves, so a set larger than that cannot stream concurrently.
    """

    name = "bluetooth"

    def __init__(self, max_active_slaves: int = 7):
        if max_active_slaves < 1:
            raise ConfigurationError("piconet parameters must be >= 1")
        self.max_active_slaves = max_active_slaves

    def accepts(self, sensor_set: SensorSet, context: NetworkContext) -> bool:
        return len(sensor_set) <= self.max_active_slaves


def network_feasible(
    candidate_sets: Sequence[SensorSet],
    plugins: Sequence[NetworkPlugin],
    context: NetworkContext,
) -> List[SensorSet]:
    """Filter candidates through every plugin (order-preserving)."""
    if not plugins:
        return candidate_sets  # as is, not copied
    return [
        sensor_set
        for sensor_set in candidate_sets
        if all(plugin.accepts(sensor_set, context) for plugin in plugins)
    ]
