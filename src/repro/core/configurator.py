"""Network configuration: turning a chosen set into node roles.

Section 4: "MiLAN must then configure the network (e.g., determine which
components should send data, which nodes should be routers in multi-hop
networks, and which nodes should play special roles in the network, such as
Bluetooth masters)."

:func:`configure` produces a :class:`NetworkConfiguration`:

* **senders** — the chosen sensors' nodes;
* **routers** — nodes on shortest paths from each sender to the sink over
  the live topology (when one is available);
* **master** — for piconet technologies, the node with the most remaining
  energy among participants (masters work hardest, so the freshest battery
  takes the role);
* every other node may sleep.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.plugins import NetworkContext
from repro.core.sensors import SensorInfo

SensorSet = FrozenSet[str]

#: The one empty role set that every configuration with an empty role
#: shares: each ``frozenset()`` call builds another 216-byte object, and
#: the engine's cache entries keep their winners' configurations.
_NO_NODES: FrozenSet[str] = frozenset()


class NetworkConfiguration:
    """The applied outcome of one MiLAN selection round."""

    __slots__ = ("active_sensors", "senders", "routers", "master", "sleepers")

    def __init__(self, active_sensors: SensorSet, senders: FrozenSet[str],
                 routers: FrozenSet[str], master: Optional[str],
                 sleepers: FrozenSet[str]) -> None:
        self.active_sensors = active_sensors
        self.senders = senders  # node ids that transmit data
        self.routers = routers  # node ids that must stay awake to forward
        self.master = master  # piconet master node (None = not applicable)
        self.sleepers = sleepers  # node ids allowed to power down

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.active_sensors, self.senders, self.routers, self.master,
             self.sleepers)
            == (other.active_sensors, other.senders, other.routers,
                other.master, other.sleepers)
        )

    def __hash__(self) -> int:
        return hash((self.active_sensors, self.senders, self.routers,
                     self.master, self.sleepers))

def _shortest_path(adjacency: Dict[str, Set[str]], start: str, goal: str) -> List[str]:
    """BFS path (node ids), [] when unreachable."""
    if start == goal:
        return [start]
    parents: Dict[str, str] = {start: start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for neighbor in sorted(adjacency.get(current, ())):
            if neighbor in parents:
                continue
            parents[neighbor] = current
            if neighbor == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            frontier.append(neighbor)
    return []


def configure(
    chosen: SensorSet,
    context: NetworkContext,
    elect_master: bool = False,
) -> NetworkConfiguration:
    """Derive roles for the chosen sensor set."""
    senders: Set[str] = set()
    for sensor_id in chosen:
        node_id = context.info(sensor_id).node_id
        if node_id is not None:
            senders.add(node_id)

    routers: Set[str] = set()
    if context.network is not None and context.sink_node_id is not None:
        adjacency = context.network.adjacency()
        for sender in sorted(senders):
            path = _shortest_path(adjacency, sender, context.sink_node_id)
            # Interior nodes of the path forward traffic.
            routers.update(path[1:-1])
    routers -= senders

    master: Optional[str] = None
    if elect_master:
        # Freshest battery among participating sensors' nodes becomes master.
        def residual(node_id: str) -> float:
            energies = [
                info.energy_j
                for info in context.sensors.values()
                if info.node_id == node_id
            ]
            return max(energies, default=0.0)

        participants = sorted(senders | routers)
        if context.sink_node_id is not None:
            participants = sorted(set(participants) | {context.sink_node_id})
        if participants:
            master = max(participants, key=lambda n: (residual(n), n))

    all_nodes: Set[str] = set()
    if context.network is not None:
        all_nodes = set(context.network.node_ids())
    else:
        all_nodes = {
            info.node_id for info in context.sensors.values() if info.node_id
        }
    awake = senders | routers
    if master is not None:
        awake.add(master)
    if context.sink_node_id is not None:
        awake.add(context.sink_node_id)
    sleepers = all_nodes - awake

    return NetworkConfiguration(
        active_sensors=chosen,
        senders=frozenset(senders) if senders else _NO_NODES,
        routers=frozenset(routers) if routers else _NO_NODES,
        master=master,
        sleepers=frozenset(sleepers) if sleepers else _NO_NODES,
    )
