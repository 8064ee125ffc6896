"""Discrete-event network simulator.

This package is the substrate the paper assumes but never describes: we have
no Bluetooth/802.11 testbed or sensor hardware, so the middleware runs over a
deterministic simulation of one. It models:

* a global event loop with virtual time (:mod:`repro.netsim.simulator`),
* nodes with positions and batteries (:mod:`repro.netsim.node`),
* the first-order radio energy model used by the authors' group
  (:mod:`repro.netsim.energy`),
* a wireless broadcast medium with disk propagation, loss, and contention
  delay (:mod:`repro.netsim.medium`), and wireline links
  (:mod:`repro.netsim.link`),
* mobility models (:mod:`repro.netsim.mobility`), topology generators
  (:mod:`repro.netsim.topology`), and failure injection
  (:mod:`repro.netsim.failures`).

Nothing in this package knows about the middleware above it; the coupling
point is :class:`repro.netsim.node.Node.set_packet_handler`. That is
enforced by the layer order in ``tests/test_judging_kit.py`` (``LAYERS``):
one listed import from above, the ``chaos`` forwarder, which this
``__init__`` does not load.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "Battery": "repro.netsim.energy",
    "RadioEnergyModel": "repro.netsim.energy",
    "WiredLink": "repro.netsim.link",
    "RadioProfile": "repro.netsim.medium",
    "WirelessMedium": "repro.netsim.medium",
    "Network": "repro.netsim.network",
    "Node": "repro.netsim.node",
    "Packet": "repro.netsim.packet",
    "Simulator": "repro.netsim.simulator",
})
