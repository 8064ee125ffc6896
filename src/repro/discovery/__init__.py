"""Service discovery — the paper's "plug and play" feature (Section 3.3).

The section prescribes, and this package provides:

* attribute-based service descriptions with QoS properties and optional
  markup interfaces (:mod:`repro.discovery.description`),
* a matching engine combining attribute predicates with QoS scoring,
  including spatial QoS (:mod:`repro.discovery.matching`),
* a **centralized** lease-based registry in the SLP/Jini style
  (:mod:`repro.discovery.registry`),
* a **completely distributed** mode: hop-limited advertisement/query
  flooding with reverse-path replies and advertisement caches
  (:mod:`repro.discovery.distributed`),
* an **adaptive** mode that picks centralized or distributed "based on some
  aspects of the network itself such as density or traffic"
  (:mod:`repro.discovery.adaptive`),
* registry **mirroring** "to further increase scalability"
  (:mod:`repro.discovery.mirror`),

and Section 2's embedded web server, which serves a node's services as
hyperlinked SML pages (:mod:`repro.discovery.webserver`).
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "AdaptiveDiscovery": "repro.discovery.adaptive",
    "ServiceDescription": "repro.discovery.description",
    "DistributedDiscovery": "repro.discovery.distributed",
    "AttributeConstraint": "repro.discovery.matching",
    "Matcher": "repro.discovery.matching",
    "Query": "repro.discovery.matching",
    "MirrorGroup": "repro.discovery.mirror",
    "RegistryClient": "repro.discovery.registry",
    "RegistryServer": "repro.discovery.registry",
})
