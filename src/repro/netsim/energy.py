"""Energy modeling: the first-order radio model plus per-node batteries.

MiLAN's headline claim is that QoS-aware component selection extends network
lifetime, so energy accounting is load-bearing for experiment E10/E5. We use
the first-order radio model from the authors' group (Heinzelman et al.,
LEACH): transmitting ``k`` bits over distance ``d`` costs

    E_tx(k, d) = E_ELEC * k + EPS_AMP * k * d**PATH_LOSS_EXPONENT

and receiving ``k`` bits costs ``E_ELEC * k``. Sensing and idle listening are
charged separately.
"""

from __future__ import annotations

from math import inf
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.netsim.node import Node

#: Canonical constants from the LEACH papers.
E_ELEC = 50e-9  # J/bit for the radio electronics, charged on TX and RX
EPS_AMP = 100e-12  # J/bit/m^2 for the transmit amplifier
PATH_LOSS_EXPONENT = 2.0  # free space


class RadioEnergyModel:
    """First-order radio energy model over :data:`E_ELEC`, :data:`EPS_AMP`
    and :data:`PATH_LOSS_EXPONENT`."""

    __slots__ = ()

    def tx_cost(self, size_bits: int, distance: float) -> float:
        """Energy (J) to transmit ``size_bits`` over ``distance`` meters."""
        if size_bits < 0:
            raise ConfigurationError(f"negative packet size {size_bits!r}")
        return (
            E_ELEC * size_bits
            + EPS_AMP * size_bits * distance**PATH_LOSS_EXPONENT
        )

    def rx_cost(self, size_bits: int) -> float:
        """Energy (J) to receive ``size_bits``."""
        if size_bits < 0:
            raise ConfigurationError(f"negative packet size {size_bits!r}")
        return E_ELEC * size_bits

class Battery:
    """A finite energy store with depletion callbacks.

    ``capacity`` of ``inf`` models a mains-powered node. A node reaches
    its battery's transition to empty through ``_node`` (set by
    :class:`~repro.netsim.node.Node`); other listeners register with
    :meth:`on_depleted`, and the list holding them is made by the first.
    """

    __slots__ = ("capacity", "remaining", "_node", "_callbacks")

    def __init__(self, capacity: float = 2.0, remaining: float = -1.0) -> None:
        self.capacity = capacity  # joules; typical mote experiment scale
        self.remaining = remaining
        self._node: Optional["Node"] = None
        self._callbacks: Optional[List[Callable[[], None]]] = None
        if self.capacity < 0:
            raise ConfigurationError(f"battery capacity must be >= 0, got {self.capacity!r}")
        if self.remaining < 0:
            self.remaining = self.capacity

    @property
    def depleted(self) -> bool:
        return not self.remaining > 0.0

    @property
    def fraction_remaining(self) -> float:
        if self.capacity == inf:
            return 1.0
        if self.capacity == 0:
            return 0.0
        return max(0.0, self.remaining / self.capacity)

    def on_depleted(self, callback: Callable[[], None]) -> None:
        """Register a callback fired once, when the battery first hits zero."""
        if self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def drain(self, joules: float) -> bool:
        """Consume energy; returns True if the node is still powered.

        Draining an already-depleted battery is a no-op returning False.
        The node, then the depletion callbacks, hear exactly once of the
        first transition to empty (an infinite battery drained by ``inf``
        joules goes NaN, which is empty too).
        """
        # One inverted comparison rejects negatives and NaN alike; a NaN
        # would otherwise leave ``remaining`` NaN and the node immortal.
        if not joules >= 0.0:
            raise ConfigurationError(f"cannot drain negative energy {joules!r}")
        remaining = self.remaining
        if not remaining > 0.0:
            return False
        remaining -= joules
        if remaining > 0.0:
            self.remaining = remaining
            return True
        self.remaining = 0.0
        node, callbacks = self._node, self._callbacks
        if node is not None:
            self._node = None
            node._battery_depleted()
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback()
        return False

def mains_battery() -> Battery:
    """A battery that never depletes (wall-powered node)."""
    return Battery(inf)
