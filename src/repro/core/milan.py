"""The MiLAN runtime.

Owns the mechanism side of the policy/mechanism split: given an
:class:`~repro.core.policy.ApplicationPolicy`, a set of (discovered or
registered) sensors, and optional network plugins, it

1. computes the application feasible sets for the current state,
2. filters them through the network plugins,
3. selects the set optimizing the policy's tradeoff,
4. derives the network configuration (senders/routers/master/sleepers),

and re-runs that pipeline whenever the application state changes, a sensor
joins or leaves (plug and play), or energy updates make the current choice
stale. When nothing is feasible it degrades gracefully: it applies the
best-effort greedy set (or empty) and emits ``"infeasible"`` so the
application can react.

Events (via :attr:`events`): ``"reconfigured"`` (configuration, score),
``"infeasible"`` (state), ``"state_changed"`` (old, new),
``"sensor_added"`` / ``"sensor_removed"`` (sensor_id).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.configurator import NetworkConfiguration, configure
from repro.core.feasibility import (
    greedy_feasible_set,
    minimal_feasible_sets,
    satisfies,
)
from repro.core.plugins import NetworkContext, NetworkPlugin, network_feasible
from repro.core.policy import ApplicationPolicy
from repro.core.reconfig import FeasibilityEntry, Probe, ReconfigEngine
from repro.core.selection import SetScore, check_own_ids, select_best
from repro.core.sensors import SensorInfo
from repro.obs.tracing import TRACER
from repro.util.events import EventEmitter

SensorSet = FrozenSet[str]

#: Fleet size up to which minimal sets are enumerated exactly; larger
#: fleets use the greedy construction.
EXHAUSTIVE_LIMIT = 16


class Milan:
    """One application's MiLAN instance.

    ``incremental=True`` (the default) runs the pipeline through a
    :class:`~repro.core.reconfig.ReconfigEngine` (docs/ARCHITECTURE.md,
    "The warm round"). Results are identical to the uncached path
    (``incremental=False``), which is kept both as the equivalence oracle
    and for memory-constrained embeddings.
    """

    def __init__(
        self,
        policy: ApplicationPolicy,
        plugins: Sequence[NetworkPlugin] = (),
        context: Optional[NetworkContext] = None,
        elect_master: bool = False,
        auto_reconfigure: bool = True,
        incremental: bool = True,
    ):
        self.policy = policy
        self.plugins = list(plugins)
        self.context = context if context is not None else NetworkContext()
        self.elect_master = elect_master
        self.auto_reconfigure = auto_reconfigure
        self.events = EventEmitter()
        self.state_machine = policy.build_state_machine()
        self.state_machine.events.on("state_changed", self._on_state_changed)
        self.current_configuration: Optional[NetworkConfiguration] = None
        self.current_score: Optional[SetScore] = None
        self.reconfigurations = 0
        self.infeasible_rounds = 0
        self._strategy = policy.selection_strategy()
        self.engine: Optional[ReconfigEngine] = (
            ReconfigEngine() if incremental else None
        )
        # advance_time's per-tick iteration order, memoized by the identity
        # of the active-sensor frozenset it was derived from.
        self._active_sorted: Tuple[str, ...] = ()
        self._active_sorted_for: Optional[SensorSet] = None
        self._requirements_override: Optional[
            Callable[[Dict[str, float]], Dict[str, float]]
        ] = None

    # ------------------------------------------------------------ inspection

    @property
    def state(self) -> str:
        return self.state_machine.current

    @property
    def sensors(self) -> Dict[str, SensorInfo]:
        return self.context.sensors

    def requirements(self) -> Dict[str, float]:
        base = self.policy.requirements.for_state(self.state)
        if self._requirements_override is not None:
            return self._requirements_override(base)
        return base

    def set_requirements_override(
        self,
        override: Optional[Callable[[Dict[str, float]], Dict[str, float]]],
        reconfigure: bool = True,
    ) -> None:
        """Install (or with ``None``, remove) a requirements transform.

        The override maps the policy's per-state requirements to what the
        pipeline should actually satisfy — the overload governor uses it to
        degrade sampling quality toward a QoS floor under load. Distinct
        outputs key distinct :class:`~repro.core.reconfig.ReconfigEngine`
        cache entries, so flipping between overload levels is a warm
        reconfiguration after the first visit to each level.
        """
        self._requirements_override = override
        if reconfigure and self.auto_reconfigure:
            self.reconfigure()

    def active_sensor_ids(self) -> SensorSet:
        if self.current_configuration is None:
            return frozenset()
        return self.current_configuration.active_sensors

    def application_satisfied(self) -> bool:
        """Is the applied set actually meeting the current requirements?"""
        sensors = self.context.sensors
        active = []
        for sid in self.active_sensor_ids():
            sensor = sensors.get(sid)
            if sensor is not None and not sensor.depleted:
                active.append(sensor)
        return satisfies(active, self.requirements())

    # ---------------------------------------------------------- plug and play

    def add_sensor(self, sensor: SensorInfo) -> None:
        if self.engine is not None:
            # A re-registration may carry new reliabilities/power; drop any
            # cached results keyed on the old signature.
            self.engine.invalidate_sensor(sensor.sensor_id)
        self.context.sensors[sensor.sensor_id] = sensor
        self.events.emit("sensor_added", sensor.sensor_id)
        if self.auto_reconfigure:
            self.reconfigure()

    def remove_sensor(self, sensor_id: str) -> None:
        # Judge "was it active" against the pre-mutation set: the emit below
        # may run listeners that reconfigure (and thereby rebuild the active
        # set) before this frame gets to its own check.
        was_active = sensor_id in self.active_sensor_ids()
        if self.context.sensors.pop(sensor_id, None) is not None:
            if self.engine is not None:
                self.engine.invalidate_sensor(sensor_id)
            self.events.emit("sensor_removed", sensor_id)
            if self.auto_reconfigure and was_active:
                self.reconfigure()

    def update_sensor_energy(self, sensor_id: str, energy_j: float) -> None:
        """Refresh a sensor's energy; reconfigures if it died while active.

        A non-depleting update is the energy-only fast path: the feasibility
        fingerprint excludes energy, so the next ``reconfigure()`` reuses
        the cached candidates and only re-scores them.
        """
        sensor = self.context.sensors.get(sensor_id)
        if sensor is None:
            return
        was_active = sensor_id in self.active_sensor_ids()
        updated = sensor.with_energy(energy_j)
        self.context.sensors[sensor_id] = updated
        if updated.depleted and not sensor.depleted and self.engine is not None:
            self.engine.invalidate_sensor(sensor_id)
        if self.auto_reconfigure and energy_j <= 0.0 and was_active:
            self.reconfigure()

    # ----------------------------------------------------------------- state

    def set_state(self, state: str) -> None:
        self.state_machine.force(state)

    def observe(self, readings: Dict[str, object]) -> None:
        """Feed variable readings; may fire a policy transition."""
        self.state_machine.advance(readings)

    def _on_state_changed(self, old: str, new: str) -> None:
        if TRACER.enabled:
            # `src`/`dst` rather than from/to: `from` is a reserved word and
            # labels are passed as keywords.
            with TRACER.span("milan.state_transition", src=old, dst=new):
                self._after_state_change(old, new)
        else:
            self._after_state_change(old, new)

    def _after_state_change(self, old: str, new: str) -> None:
        self.events.emit("state_changed", old, new)
        if self.auto_reconfigure:
            self.reconfigure()

    # ------------------------------------------------------------- pipeline

    def _candidate_sets(
        self, requirements: Dict[str, float]
    ) -> Tuple[List[SensorSet], Optional[FeasibilityEntry], Optional[Probe]]:
        """Steps 1-2: application feasible sets, then network filtering;
        and the engine entry and probe they came from, for ``select``."""
        entry = probe = None
        if self.engine is not None:
            entry, probe = self.engine.candidates(
                self.context.sensors,
                requirements,
                lambda: self._application_candidates(requirements),
            )
            candidates = entry.candidates
        else:
            # The engine's probe names a record under another key; so does
            # the oracle, which would otherwise score a record held under
            # two keys, and ``advance_time`` drain one of them.
            check_own_ids(self.context.sensors)
            candidates = self._application_candidates(requirements)
        # Plugins judge live network state (reachability, channel load) that
        # can change without any sensor delta, so filtering is never cached.
        return (network_feasible(candidates, self.plugins, self.context),
                entry, probe)

    def _application_candidates(
        self, requirements: Dict[str, float]
    ) -> List[SensorSet]:
        """The uncached enumeration — also the engine's miss path.

        The alive fleet is id-sorted so the enumeration is canonical in the
        fleet's *content*: two fleets that differ only in registration
        order produce identical candidate lists, which is what lets a
        cached list stand in for a fresh enumeration byte-for-byte.
        """
        alive = sorted(
            (s for s in self.context.sensors.values() if not s.depleted),
            key=lambda s: s.sensor_id,
        )
        if len(alive) <= EXHAUSTIVE_LIMIT:
            minimal = minimal_feasible_sets(alive, requirements)
        else:
            greedy = greedy_feasible_set(alive, requirements)
            minimal = [greedy] if greedy is not None else []
        return list(minimal)

    def reconfigure(self) -> Optional[NetworkConfiguration]:
        """Run the full pipeline and apply the result."""
        if TRACER.enabled:
            with TRACER.span("milan.reconfigure", state=self.state) as span:
                configuration = self._run_pipeline()
                if configuration is not None:
                    span.set_label(active=len(configuration.active_sensors))
                return configuration
        return self._run_pipeline()

    def _run_pipeline(self) -> Optional[NetworkConfiguration]:
        requirements = self.requirements()
        candidates, entry, probe = self._candidate_sets(requirements)
        chosen = None if entry is None else self.engine.select(
            entry, probe, candidates, self.context, requirements,
            self._strategy, self.elect_master)
        if chosen is None:
            # Uncached: the oracle's every round, and the engine's where the
            # plugins moved the fleet key or nothing is left to rank.
            score = select_best(
                candidates, self.context.sensors, requirements, self._strategy
            )
            if score is not None:
                chosen = score, configure(
                    score.sensor_set, self.context, self.elect_master)
        if chosen is None:
            # Graceful degradation: best-effort greedy set, even if it
            # cannot fully satisfy the state.
            self.infeasible_rounds += 1
            if TRACER.enabled:
                TRACER.instant("milan.infeasible", state=self.state)
            self.events.emit("infeasible", self.state)
            fallback = greedy_feasible_set(
                list(self.context.sensors.values()), requirements
            )
            best_effort = fallback if fallback is not None else self._all_alive()
            configuration = configure(best_effort, self.context, self.elect_master)
            self.current_configuration = configuration
            self.current_score = None
            return configuration
        score, configuration = chosen
        self.current_configuration = configuration
        self.current_score = score
        self.reconfigurations += 1
        self.events.emit("reconfigured", configuration, score)
        return configuration

    def _all_alive(self) -> SensorSet:
        return frozenset(
            sid for sid, s in self.context.sensors.items() if not s.depleted
        )

    # ------------------------------------------------------------- simulation

    def advance_time(self, dt_s: float) -> List[str]:
        """Drain energy from active sensors for ``dt_s`` seconds.

        Returns the ids of sensors that died during the interval. Used by
        the lifetime experiments: the harness alternates advance_time with
        application activity. Reconfigures automatically when a death (or
        the auto flag) requires it.
        """
        died: List[str] = []
        sensors = self.context.sensors
        active = self.active_sensor_ids()
        # One snapshot per configuration, not per tick: the sorted order is
        # memoized by the identity of the active-set frozenset, so a steady
        # lifetime loop pays sorted() only when the configuration changes.
        if active is not self._active_sorted_for:
            self._active_sorted = tuple(sorted(active))
            self._active_sorted_for = active
        for sensor_id in self._active_sorted:
            sensor = sensors.get(sensor_id)
            if sensor is None or sensor.depleted:
                continue
            drained = sensor.drained(sensor.active_power_w * dt_s)
            sensors[sensor_id] = drained
            if drained.depleted:
                died.append(sensor_id)
        if died:
            if self.engine is not None:
                for sensor_id in died:
                    self.engine.invalidate_sensor(sensor_id)
            if self.auto_reconfigure:
                self.reconfigure()
        return died
