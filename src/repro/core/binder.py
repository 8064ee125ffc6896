"""Binding MiLAN to live service discovery.

Section 4: "the system incorporates a service discovery mechanism to
identify new components". The :class:`DiscoveryBinder` closes that loop as
a library feature: it watches a discovery agent for sensors of a given
service type, feeds arrivals into a :class:`~repro.core.milan.Milan`
instance (converted via
:func:`~repro.core.sensors.sensor_from_description`), refreshes the fleet
with periodic lookups, and removes sensors whose advertisements disappear —
so an application's entire sensing plane is assembled and maintained
hands-free.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Set

from repro.core.milan import Milan
from repro.core.sensors import sensor_from_description
from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Query
from repro.transport.base import Scheduler
from repro.util.events import EventEmitter
from repro.util.promise import Promise


#: Descriptions asked for per discovery lookup.
MAX_RESULTS = 64
#: Consecutive refreshes a bound sensor may be missing from before it is
#: removed from MiLAN.
MISS_LIMIT = 2


class LookupAgent(Protocol):
    """What the binder needs from a discovery mode (they all provide it)."""

    def lookup(self, query: Query) -> Promise:
        ...


class DiscoveryBinder:
    """Keeps a Milan instance's sensor fleet synchronized with discovery.

    Events (via :attr:`events`): ``"sensor_bound"`` / ``"sensor_unbound"``
    (sensor id).
    """

    def __init__(
        self,
        milan: Milan,
        discovery: LookupAgent,
        scheduler: Scheduler,
        service_type: str = "sensor",
        refresh_interval_s: float = 10.0,
    ):
        self.milan = milan
        self.discovery = discovery
        self.scheduler = scheduler
        self.service_type = service_type
        self.refresh_interval_s = refresh_interval_s
        self.events = EventEmitter()
        self._bound: Set[str] = set()
        self._misses: Dict[str, int] = {}
        self._running = True
        self.refreshes = 0
        self.refresh()
        self._timer = scheduler.schedule(refresh_interval_s, self._periodic)

    # ------------------------------------------------------------- refresh

    def refresh(self) -> Promise:
        """One discovery round; fulfills when the fleet has been updated."""
        done: Promise = Promise()
        query = Query(self.service_type, max_results=MAX_RESULTS)
        self.discovery.lookup(query).on_settle(
            lambda settled: self._apply(settled, done)
        )
        return done

    def _apply(self, settled: Promise, done: Promise) -> None:
        if settled.rejected:
            done.reject(settled.error())  # type: ignore[arg-type]
            return
        self.refreshes += 1
        seen: Set[str] = set()
        for description in settled.result():
            if not isinstance(description, ServiceDescription):
                continue
            sensor = sensor_from_description(description)
            if not sensor.reliabilities:
                continue  # not a MiLAN-describable component
            seen.add(sensor.sensor_id)
            self._misses.pop(sensor.sensor_id, None)
            if sensor.sensor_id not in self._bound:
                self._bound.add(sensor.sensor_id)
                self.milan.add_sensor(sensor)
                self.events.emit("sensor_bound", sensor.sensor_id)
            else:
                # Refresh energy/reliability info without forcing reconfig
                # unless the sensor died.
                self.milan.context.sensors[sensor.sensor_id] = sensor
        # A sensor missing from MISS_LIMIT consecutive rounds is gone.
        for sensor_id in list(self._bound - seen):
            misses = self._misses.get(sensor_id, 0) + 1
            self._misses[sensor_id] = misses
            if misses >= MISS_LIMIT:
                self._bound.discard(sensor_id)
                self._misses.pop(sensor_id, None)
                self.milan.remove_sensor(sensor_id)
                self.events.emit("sensor_unbound", sensor_id)
        done.fulfill(sorted(seen))

    def _periodic(self) -> None:
        if not self._running:
            return
        self.refresh()
        self._timer = self.scheduler.schedule(self.refresh_interval_s, self._periodic)

    # ------------------------------------------------------------- controls

    @property
    def bound_sensors(self) -> Set[str]:
        return set(self._bound)

    def stop(self) -> None:
        """Stop refreshing (the current fleet stays bound)."""
        self._running = False
        self._timer.cancel()
