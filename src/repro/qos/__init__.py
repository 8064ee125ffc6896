"""Quality of Service (Section 3.4).

The paper splits QoS three ways and this package mirrors that split:

* **supplier QoS** — what a service can promise: availability, reliability,
  latency, security requirements, power constraints
  (:class:`~repro.qos.spec.SupplierQoS`);
* **consumer QoS** — what an application needs: reliability, availability
  and latency floors, security, and space (spatial preferences,
  :mod:`repro.qos.spatial`) (:class:`~repro.qos.spec.ConsumerQoS`);
* **network QoS** — bandwidth, density, traffic; no deployment supplies it
  at match time, so it does not enter the score.

:func:`~repro.qos.spec.score_match` combines supplier and consumer QoS into
the matching score used by service discovery, and :mod:`repro.qos.contract` /
:mod:`repro.qos.monitor` provide the runtime side: contracts, violation
detection, and the graceful-degradation manager. :mod:`repro.qos.admission`
adds request-edge admission control with priority classes — the front door
of the overload-protection path (Section 3.7) — over the conserving
token-bucket allocator of :mod:`repro.qos.bandwidth`, which the transport's
pacer charges as well; so this package sits below ``repro.transport``.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "AdmissionController": "repro.qos.admission",
    "PriorityClass": "repro.qos.admission",
    "BandwidthAllocator": "repro.qos.bandwidth",
    "TokenBucket": "repro.qos.bandwidth",
    "QoSContract": "repro.qos.contract",
    "DegradationManager": "repro.qos.monitor",
    "QoSMonitor": "repro.qos.monitor",
    "SpatialPreference": "repro.qos.spatial",
    "spatial_score": "repro.qos.spatial",
    "ConsumerQoS": "repro.qos.spec",
    "MatchScore": "repro.qos.spec",
    "SupplierQoS": "repro.qos.spec",
    "score_match": "repro.qos.spec",
})
