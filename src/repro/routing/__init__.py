"""Locating and routing (Section 3.5).

The paper's position: routing belongs *inside* the middleware ("we do not
exploit any existing routing algorithms, but rather the middleware
incorporates this functionality"), because the middleware can exploit
low-level information — notably residual energy — that sits below the
application. This package provides that layer:

* :mod:`repro.routing.base` — the per-node :class:`RoutingAgent`, envelope
  format, and :class:`RoutedTransport` (a multi-hop transport any upper
  subsystem can use unchanged),
* :mod:`repro.routing.flooding` — TTL-scoped flooding with duplicate
  suppression,
* :mod:`repro.routing.linkstate` — converged link-state shortest path
  (Dijkstra) with pluggable edge weights,
* :mod:`repro.routing.energyaware` — residual-energy-weighted routing (the
  E5 lifetime experiment),
* :mod:`repro.routing.geographic` — greedy geographic forwarding,
* :mod:`repro.routing.dsr` — on-demand source routing (RREQ/RREP, route
  cache),
* :mod:`repro.routing.datacentric` — directed-diffusion-style interest/
  gradient routing for sensor data.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "Envelope": "repro.routing.base",
    "RoutedTransport": "repro.routing.base",
    "Router": "repro.routing.base",
    "RoutingAgent": "repro.routing.base",
    "DataCentricAgent": "repro.routing.datacentric",
    "DsrRouter": "repro.routing.dsr",
    "EnergyAwareRouter": "repro.routing.energyaware",
    "FloodingRouter": "repro.routing.flooding",
    "GeographicRouter": "repro.routing.geographic",
    "LinkStateRouter": "repro.routing.linkstate",
})
