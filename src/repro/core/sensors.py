"""Sensor QoS: what each component contributes, and at what cost.

A :class:`SensorInfo` is MiLAN's view of one available component: the
reliability it provides for each variable it can measure, its transmit
power draw while active, and its remaining energy. Instances are built
directly (simulation) or from discovered service descriptions whose QoS
properties carry ``var:<name>`` reliability entries
(:func:`sensor_from_description`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.discovery.description import ServiceDescription
from repro.errors import ConfigurationError

#: Prefix marking per-variable reliabilities inside SupplierQoS.properties.
VARIABLE_PROPERTY_PREFIX = "var:"


class SensorInfo:
    """One component MiLAN can switch on or off.

    Attributes:
        sensor_id: unique component id.
        reliabilities: variable -> reliability in (0, 1].
        active_power_w: power drawn while selected (sampling + radio).
        energy_j: remaining battery energy (inf = mains).
        depleted: ``energy_j <= 0.0``, stored by ``__init__``: the record
            is never changed in place (``with_energy``/``drained`` build
            copies), and MiLAN reads it for every sensor every round.
        node_id: the network node hosting it (for the configurator's
            routes and roles).
    """

    __slots__ = ("sensor_id", "reliabilities", "active_power_w", "energy_j",
                 "depleted", "node_id")

    def __init__(self, sensor_id: str,
                 reliabilities: Optional[Dict[str, float]] = None,
                 active_power_w: float = 1e-3, energy_j: float = float("inf"),
                 node_id: Optional[str] = None) -> None:
        if not sensor_id:
            raise ConfigurationError("sensor_id must be non-empty")
        if reliabilities is None:
            reliabilities = {}
        for variable, reliability in reliabilities.items():
            if not 0.0 < reliability <= 1.0:
                raise ConfigurationError(
                    f"sensor {sensor_id!r}: reliability for {variable!r} "
                    f"must be in (0, 1], got {reliability!r}"
                )
        # Inverted comparisons: NaN fails them and is refused with the
        # negatives. Infinite energy (mains power) passes; infinite power
        # does not (a mains sensor's lifetime would be inf / inf = NaN).
        if not 0 <= active_power_w < float("inf"):
            raise ConfigurationError(
                f"active power must be finite and >= 0, got {active_power_w!r}"
            )
        if not energy_j >= 0:
            raise ConfigurationError(f"energy must be >= 0, got {energy_j!r}")
        self.sensor_id = sensor_id
        self.reliabilities = reliabilities
        self.active_power_w = active_power_w
        self.energy_j = energy_j
        self.depleted = energy_j <= 0.0
        self.node_id = node_id

    def reliability_for(self, variable: str) -> float:
        return self.reliabilities.get(variable, 0.0)

    def measures(self, variable: str) -> bool:
        return variable in self.reliabilities

    def lifetime_if_active(self) -> float:
        """Seconds until this sensor dies if kept active continuously."""
        if self.active_power_w == 0:
            return float("inf")
        return self.energy_j / self.active_power_w

    def drained(self, joules: float) -> "SensorInfo":
        """A copy with ``joules`` consumed (immutable update)."""
        if self.energy_j == float("inf"):
            return self
        return self.with_energy(max(0.0, self.energy_j - joules))

    def with_energy(self, energy_j: float) -> "SensorInfo":
        # The reliabilities mapping keeps its identity: the engine's
        # signature memo is validated by it.
        return SensorInfo(
            self.sensor_id, self.reliabilities, self.active_power_w,
            energy_j, self.node_id,
        )


def sensor_from_description(description: ServiceDescription) -> SensorInfo:
    """Build a SensorInfo from a discovered service description.

    Per-variable reliabilities come from QoS properties named
    ``var:<variable>``; power draw from the optional ``power_w`` property;
    energy from the battery fraction times the ``battery_capacity_j``
    property (default 1 J).
    """
    reliabilities: Dict[str, float] = {}
    for name, value in description.qos.properties.items():
        if name.startswith(VARIABLE_PROPERTY_PREFIX):
            variable = name[len(VARIABLE_PROPERTY_PREFIX):]
            reliabilities[variable] = float(value)
    power = float(description.qos.properties.get("power_w", "0.001"))
    if description.qos.battery_powered and description.qos.battery_fraction is not None:
        capacity = float(description.qos.properties.get("battery_capacity_j", "1.0"))
        energy = description.qos.battery_fraction * capacity
    else:
        energy = float("inf")
    return SensorInfo(
        sensor_id=description.service_id,
        reliabilities=reliabilities,
        active_power_w=power,
        energy_j=energy,
        node_id=description.provider.split(":", 1)[0],
    )
