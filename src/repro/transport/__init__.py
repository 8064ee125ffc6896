"""Transport layer: the paper's "network independence" feature (Section 3.2).

Everything above this package (discovery, transactions, MiLAN) talks to a
single abstraction — :class:`repro.transport.base.Transport` — and therefore
runs unchanged over:

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
  charged against a :class:`~repro.scheduling.bandwidth.BandwidthAllocator`
  reservation (the overload-protection send path),
* :mod:`repro.transport.stack` — declarative composition of the above,
* :mod:`repro.transport.endpoint` — the one decode → validate → dispatch
  skeleton every protocol endpoint above a transport subclasses.
"""

from repro.transport.base import Address, Scheduler, Transport
from repro.transport.inmemory import InMemoryFabric, InMemoryTransport
from repro.transport.pacing import PacedTransport
from repro.transport.reliable import ReliabilityParams, ReliableTransport
from repro.transport.secure import SecureChannel, SecureTransport
from repro.transport.simnet import SimFabric, SimTransport
from repro.transport.stack import StackSpec, build_stack

__all__ = [
    "Address",
    "Scheduler",
    "Transport",
    "InMemoryFabric",
    "InMemoryTransport",
    "PacedTransport",
    "ReliabilityParams",
    "ReliableTransport",
    "SecureChannel",
    "SecureTransport",
    "SimFabric",
    "SimTransport",
    "StackSpec",
    "build_stack",
]
