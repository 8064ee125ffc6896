"""Overload-driven adaptive QoS: the governor that closes the loop.

The transport and admission layers *report* pressure (queue depths, shed
counters, rejection fractions); MiLAN *can* run cheaper configurations
(lower required reliabilities → smaller feasible sets → fewer senders).
The :class:`OverloadGovernor` connects the two: it samples pressure
signals on a fixed cadence, maps the worst signal onto a small ladder of
:class:`OverloadLevel`\\ s with hysteresis and a de-escalation dwell, and —
via :meth:`~repro.core.milan.Milan.set_requirements_override` — scales the
application's per-state requirements toward (never through) a per-variable
**QoS floor** while overloaded.

Determinism: the governor owns no clock and rolls no dice. Ticks ride the
(virtual-time) scheduler, pressure is a pure max over the registered
signal callables, and level transitions depend only on (pressure history,
ladder thresholds, dwell) — so a simulated flash crowd degrades and
recovers identically on every run, which the chaos scorecards rely on.

Hysteresis is two-sided: a level is *entered* the first tick pressure
reaches its ``enter`` threshold (escalation is immediate — overload is an
emergency), but *left* only after pressure has stayed at or below its
``exit`` threshold for ``dwell_s`` (de-escalation is cautious — flapping
between configurations is itself a load source).

Events (via :attr:`events`): ``"degraded"`` (old_level_name,
new_level_name) on escalation, ``"restored"`` (old, new) on de-escalation.
State: the ``level`` and ``pressure`` of the last tick, and the
``escalations`` / ``deescalations`` / ``ticks`` counter slots.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.milan import Milan
from repro.errors import ConfigurationError
from repro.obs.tracing import TRACER
from repro.util.events import EventEmitter

Signal = Callable[[], float]


class OverloadLevel:
    """One rung of the degradation ladder.

    ``enter``/``exit`` are pressure thresholds in [0, 1] with ``exit <
    enter`` (the hysteresis band); ``scale`` multiplies every required
    reliability while the level is active (clamped to the QoS floor).
    """

    __slots__ = ("name", "enter", "exit", "scale")

    def __init__(self, name: str, enter: float, exit: float,
                 scale: float) -> None:
        self.name = name
        self.enter = enter
        self.exit = exit
        self.scale = scale
        if not 0.0 < self.enter <= 1.0:
            raise ConfigurationError(
                f"level {self.name!r}: enter must be in (0, 1], got {self.enter!r}"
            )
        if not 0.0 <= self.exit < self.enter:
            raise ConfigurationError(
                f"level {self.name!r}: exit must be in [0, enter), got {self.exit!r}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError(
                f"level {self.name!r}: scale must be in (0, 1], got {self.scale!r}"
            )


DEFAULT_LEVELS: Tuple[OverloadLevel, ...] = (
    OverloadLevel("elevated", enter=0.5, exit=0.25, scale=0.85),
    OverloadLevel("high", enter=0.75, exit=0.5, scale=0.7),
    OverloadLevel("critical", enter=0.9, exit=0.7, scale=0.5),
)


class OverloadGovernor:
    """Samples pressure signals and degrades MiLAN requirements under load.

    ``scheduler`` provides time and periodic ticks (pass the transport
    scheduler so virtual-time tests drive the governor deterministically).
    ``milan`` may be ``None`` for signal-only deployments (the level ladder
    still runs and events still fire; there is just nothing to degrade).

    Signals are callables returning pressure in [0, 1] (values are clamped);
    the governor's composite pressure is their **max** — one saturated
    resource makes the node overloaded regardless of how idle the rest are.
    """

    def __init__(
        self,
        scheduler,
        milan: Optional[Milan] = None,
        *,
        floor: Optional[Dict[str, float]] = None,
        interval_s: float = 1.0,
        dwell_s: float = 3.0,
    ):
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s!r}")
        self.scheduler = scheduler
        self.milan = milan
        self.floor = dict(floor or {})
        self.interval_s = interval_s
        self.dwell_s = dwell_s
        self.events = EventEmitter()
        self._signals: Dict[str, Signal] = {}
        # 0 = nominal; i >= 1 means DEFAULT_LEVELS[i - 1] is active.
        self.level = 0
        self.pressure = 0.0
        self.escalations = 0
        self.deescalations = 0
        self.ticks = 0
        # Time at which pressure last sat *above* the active level's exit
        # threshold; de-escalation needs dwell_s of continuous calm.
        self._calm_since: Optional[float] = None
        self._timer = None
        self._stopped = False

    # -------------------------------------------------------------- signals

    def add_signal(self, name: str, signal: Signal) -> None:
        if name in self._signals:
            raise ConfigurationError(f"signal {name!r} already registered")
        self._signals[name] = signal

    def sample_pressure(self) -> float:
        """Max over all signals, each clamped to [0, 1]."""
        pressure = 0.0
        for signal in self._signals.values():
            pressure = max(pressure, min(1.0, max(0.0, float(signal()))))
        return pressure

    # ------------------------------------------------------------ level name

    @property
    def level_name(self) -> str:
        return "nominal" if self.level == 0 else DEFAULT_LEVELS[self.level - 1].name

    def degraded_requirements(self, base: Dict[str, float]) -> Dict[str, float]:
        """Scale ``base`` by the active level, clamped to the QoS floor.

        Each requirement becomes ``base * scale`` but never below the
        variable's floor and never *above* base (a floor higher than what
        the policy asks for must not invent new requirements). Values are
        rounded so each level has one exact requirements signature — the
        reconfig cache then treats revisits as warm hits.
        """
        if self.level == 0:
            return base
        scale = DEFAULT_LEVELS[self.level - 1].scale
        degraded = {}
        for variable, required in base.items():
            value = max(required * scale, self.floor.get(variable, 0.0))
            degraded[variable] = round(min(required, value), 9)
        return degraded

    # ----------------------------------------------------------------- ticks

    def start(self) -> None:
        """Begin periodic sampling on the scheduler."""
        if self._timer is None and not self._stopped:
            self._timer = self.scheduler.schedule(self.interval_s, self._on_tick)

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_tick(self) -> None:
        self._timer = None
        if self._stopped:
            return
        self.tick()
        self._timer = self.scheduler.schedule(self.interval_s, self._on_tick)

    def tick(self, now: Optional[float] = None) -> int:
        """One sampling step; returns the (possibly new) level index.

        Exposed so tests and simulation harnesses can drive the governor
        without the periodic timer.
        """
        if now is None:
            now = self.scheduler.now()
        self.ticks += 1
        pressure = self.sample_pressure()
        self.pressure = pressure
        # Escalate to the highest level whose enter threshold is reached —
        # immediately, and possibly skipping rungs on a sharp spike.
        target = self.level
        for index in range(len(DEFAULT_LEVELS), self.level, -1):
            if pressure >= DEFAULT_LEVELS[index - 1].enter:
                target = index
                break
        if target > self.level:
            self._change_level(target, escalated=True)
            self._calm_since = None
            return self.level
        # De-escalate one rung at a time, only after dwell_s of calm below
        # the active level's exit threshold.
        if self.level > 0 and pressure <= DEFAULT_LEVELS[self.level - 1].exit:
            if self._calm_since is None:
                self._calm_since = now
            elif now - self._calm_since >= self.dwell_s:
                self._change_level(self.level - 1, escalated=False)
                self._calm_since = now
        else:
            self._calm_since = None
        return self.level

    def _change_level(self, new_level: int, escalated: bool) -> None:
        old_name = self.level_name
        self.level = new_level
        if escalated:
            self.escalations += 1
        else:
            self.deescalations += 1
        if TRACER.enabled:
            TRACER.instant(
                "overload.level",
                level=self.level_name,
                index=new_level,
                pressure=round(self.pressure, 6),
                direction="degraded" if escalated else "restored",
            )
        self._apply_to_milan()
        self.events.emit(
            "degraded" if escalated else "restored", old_name, self.level_name
        )

    def _apply_to_milan(self) -> None:
        if self.milan is None:
            return
        if self.level == 0:
            self.milan.set_requirements_override(None)
        else:
            self.milan.set_requirements_override(self.degraded_requirements)


# ------------------------------------------------------------ signal recipes


def queue_pressure(transport, max_queue: Optional[int] = None) -> Signal:
    """Pressure from a :class:`~repro.transport.pacing.PacedTransport`'s
    queue: current depth over capacity."""
    def signal() -> float:
        capacity = max_queue if max_queue is not None else transport.max_queue
        return transport.queue_depth / capacity if capacity else 0.0
    return signal


def rejection_pressure(admission) -> Signal:
    """Pressure from the admission controller: recent rejection fraction."""
    last = {"admitted": 0, "rejected": 0}

    def signal() -> float:
        admitted, rejected = admission.admitted, admission.rejected
        d_admitted = admitted - last["admitted"]
        d_rejected = rejected - last["rejected"]
        last["admitted"], last["rejected"] = admitted, rejected
        total = d_admitted + d_rejected
        return d_rejected / total if total else 0.0
    return signal
