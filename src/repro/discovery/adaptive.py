"""Adaptive discovery: centralized or distributed, chosen by the network.

Section 3.3: "Yet another approach is to allow the service discovery
approach to adapt to the current environment, selecting a centralized or
distributed approach based on some aspects of the network itself such as
density or traffic."

The policy implemented here reads density:

* **dense** neighborhoods make flooding expensive (every neighbor
  rebroadcasts), so from :data:`DENSITY_THRESHOLD` neighbors up the agent
  uses the central registry when one is configured and answering;
* **sparse** networks make a far-away registry unreachable or costly, so
  below the threshold the agent floods;
* registry silence (:data:`REGISTRY_FAILURE_LIMIT` timeouts) forces
  distributed mode regardless — a directory you cannot reach is no
  directory.

Advertisements are published through *both* paths on every mode switch so
consumers in either mode can find the service during transitions.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient
from repro.util.events import EventEmitter
from repro.util.promise import Promise

CENTRALIZED = "centralized"
DISTRIBUTED = "distributed"

#: Neighborhood size from which the registry is preferred over flooding.
DENSITY_THRESHOLD = 6.0
#: How often the agent re-reads the density and may switch modes.
REEVALUATE_INTERVAL_S = 5.0
#: Registry failures after which the agent stops trying the registry.
REGISTRY_FAILURE_LIMIT = 2


class AdaptiveDiscovery:
    """Hybrid agent owning both a registry client and a flooding agent.

    ``density_probe`` returns the current neighborhood size; in simulation
    it comes straight from the network object.

    Events (via :attr:`events`): ``"mode_changed"`` (new mode string).
    """

    def __init__(
        self,
        distributed: DistributedDiscovery,
        registry: Optional[RegistryClient] = None,
        density_probe: Callable[[], float] = lambda: 0.0,
    ):
        self.distributed = distributed
        self.registry = registry
        self.density_probe = density_probe
        self.events = EventEmitter()
        self._mode = DISTRIBUTED
        self._registry_failures = 0
        self._published: Dict[str, ServiceDescription] = {}
        self.mode_switches = 0
        self.lookups: Dict[str, int] = {CENTRALIZED: 0, DISTRIBUTED: 0}
        self._evaluate()
        self._timer = distributed.transport.scheduler.schedule(
            REEVALUATE_INTERVAL_S, self._periodic_evaluate
        )

    # ------------------------------------------------------------------ mode

    @property
    def mode(self) -> str:
        return self._mode

    def _registry_usable(self) -> bool:
        return (
            self.registry is not None
            and self._registry_failures < REGISTRY_FAILURE_LIMIT
        )

    def _evaluate(self) -> None:
        dense = self.density_probe() >= DENSITY_THRESHOLD
        want = CENTRALIZED if self._registry_usable() and dense else DISTRIBUTED
        if want != self._mode:
            self._mode = want
            self.mode_switches += 1
            self._republish()
            self.events.emit("mode_changed", want)

    def _periodic_evaluate(self) -> None:
        if self.distributed.transport.closed:
            return
        self._evaluate()
        self._timer = self.distributed.transport.scheduler.schedule(
            REEVALUATE_INTERVAL_S, self._periodic_evaluate
        )

    # ------------------------------------------------------------ supplier API

    def advertise(self, description: ServiceDescription) -> None:
        """Publish via the current mode (and re-publish on mode switches)."""
        self._published[description.service_id] = description
        self._publish_one(description)

    def _publish_one(self, description: ServiceDescription) -> None:
        if self._mode == CENTRALIZED and self.registry is not None:
            promise = self.registry.register(description)
            promise.on_error(lambda _e: self._note_registry_failure())
        else:
            self.distributed.advertise(description)

    def _republish(self) -> None:
        for description in self._published.values():
            self._publish_one(description)

    def withdraw(self, service_id: str) -> None:
        self._published.pop(service_id, None)
        self.distributed.withdraw(service_id)
        if self.registry is not None:
            self.registry.unregister(service_id)

    # ------------------------------------------------------------ consumer API

    def lookup(self, query: Query) -> Promise:
        """Look up via the current mode; registry failures fall back to
        flooding transparently."""
        self.lookups[self._mode] += 1
        if self._mode == CENTRALIZED and self.registry is not None:
            result: Promise = Promise()
            attempt = self.registry.lookup(query)

            def settle(settled: Promise) -> None:
                if settled.fulfilled:
                    result.fulfill(settled.result())
                    return
                self._note_registry_failure()
                self.distributed.lookup(query).on_settle(
                    lambda fallback: (
                        result.fulfill(fallback.result())
                        if fallback.fulfilled
                        else result.reject(fallback.error())  # type: ignore[arg-type]
                    )
                )

            attempt.on_settle(settle)
            return result
        return self.distributed.lookup(query)

    def _note_registry_failure(self) -> None:
        self._registry_failures += 1
        self._evaluate()
