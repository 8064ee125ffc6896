"""repro — a network-based distributed-systems middleware.

A full reproduction of Carvalho, Murphy, Heinzelman & Coelho,
*Network-Based Distributed Systems Middleware* (MIDDLEWARE 2003): the
Section 3 feature catalogue implemented as subsystems, the Section 4 MiLAN
core on top, and a discrete-event network substrate underneath.

Quickstart::

    from repro import MiddlewareNode, Query
    from repro.netsim import topology
    from repro.transport.simnet import SimFabric

    net = topology.star(4)
    fabric = SimFabric(net)
    hub = MiddlewareNode(fabric, "hub")                 # runs flooding discovery
    sensor = MiddlewareNode(fabric, "leaf0")
    sensor.provide("t1", "thermometer", {"read": lambda: 21.5})
    found = hub.find(Query("thermometer"))
    net.sim.run_for(2.0)
    print(found.result())

Subsystem map (paper section -> package):

==========  ==============================  ===========================
Section     Feature                         Package
==========  ==============================  ===========================
3.2         network independence            :mod:`repro.transport`
3.3         plug and play / discovery       :mod:`repro.discovery`
3.4         quality of service              :mod:`repro.qos`
3.5         locating and routing            :mod:`repro.routing`,
                                            :mod:`repro.naming`
3.6         transactions                    :mod:`repro.transactions`
3.7         scheduling                      :mod:`repro.scheduling`
3.8         recovery                        :mod:`repro.recovery`
3.9         interoperability                :mod:`repro.interop`
4           MiLAN                           :mod:`repro.core`
(substrate) network simulator               :mod:`repro.netsim`
(figure 1)  bibliometrics                   :mod:`repro.bibliometrics`
==========  ==============================  ===========================
"""

import importlib
import sys

__version__ = "1.0.0"


def _facade(package, table):
    """``(__getattr__, __all__)`` for a package that loads its public names
    on first use (PEP 562). ``table`` maps each name to the module that
    defines it, so a process compiles only the modules it touches."""

    def __getattr__(name):
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(table[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(table)


__getattr__, __all__ = _facade(__name__, {
    "Milan": "repro.core.milan",
    "ApplicationPolicy": "repro.core.policy",
    "health_monitor_policy": "repro.core.policy",
    "ServiceDescription": "repro.discovery.description",
    "AttributeConstraint": "repro.discovery.matching",
    "Query": "repro.discovery.matching",
    "MiddlewareError": "repro.errors",
    "MiddlewareNode": "repro.middleware",
    "SystemEventBus": "repro.monitoring",
    "ConsumerQoS": "repro.qos.spec",
    "SupplierQoS": "repro.qos.spec",
    "TransactionKind": "repro.transactions.transaction",
    "TransactionSpec": "repro.transactions.transaction",
})
__all__.append("__version__")
