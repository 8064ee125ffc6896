"""Transport layer: the paper's "network independence" feature (Section 3.2).

It imports only the layers below it: the simulator, the wire format, the
QoS bandwidth allocator, observability and utilities. Everything above it
(discovery, transactions, MiLAN) talks to a single abstraction —
:class:`repro.transport.base.Transport` — and therefore runs unchanged over:

* :mod:`repro.transport.inmemory` — an in-process fabric with virtual time
  (unit tests, single-machine deployments),
* :mod:`repro.transport.simnet` — the simulated wireless/wireline networks of
  :mod:`repro.netsim`, with per-technology profiles (802.11, Bluetooth,
  Ethernet),

optionally composed with:

* :mod:`repro.transport.reliable` — acknowledgements, retransmission, and
  duplicate suppression over any lossy transport,
* :mod:`repro.transport.secure` — shared-key encryption and authentication
  (Section 3.3's transport-level security),
* :mod:`repro.transport.pacing` — bounded-queue, token-bucket-paced sending
  charged against a :class:`~repro.qos.bandwidth.BandwidthAllocator`
  reservation (the overload-protection send path),
* :mod:`repro.transport.stack` — declarative composition of the above,
* :mod:`repro.transport.endpoint` — the one decode → validate → dispatch
  skeleton every protocol endpoint above a transport subclasses.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "Address": "repro.transport.base",
    "Scheduler": "repro.transport.base",
    "Transport": "repro.transport.base",
    "InMemoryFabric": "repro.transport.inmemory",
    "InMemoryTransport": "repro.transport.inmemory",
    "PacedTransport": "repro.transport.pacing",
    "ReliabilityParams": "repro.transport.reliable",
    "ReliableTransport": "repro.transport.reliable",
    "SecureChannel": "repro.transport.secure",
    "SecureTransport": "repro.transport.secure",
    "SimFabric": "repro.transport.simnet",
    "SimTransport": "repro.transport.simnet",
    "StackSpec": "repro.transport.stack",
    "build_stack": "repro.transport.stack",
})
