"""Naming and location.

Sections 3.5/3.10 distinguish *logical* from *physical* location: a service
keeps its logical name while its physical attachment point changes as it
moves. This package provides hierarchical logical names
(:mod:`repro.naming.names`) and a home-agent-style location service mapping
logical names to current physical addresses (:mod:`repro.naming.locator`).
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "LocationClient": "repro.naming.locator",
    "LocationServer": "repro.naming.locator",
    "LogicalName": "repro.naming.names",
})
