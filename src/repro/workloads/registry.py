"""The workload plugin registry: archetypes x traffic models.

Brain-score-style composition (ROADMAP item 3): an **archetype** is an
application shape built on the middleware stack (what the requests *do*);
a **traffic model** is an arrival process (when requests arrive and how
big they are). Registering either side with a decorator makes every
crossing a runnable scenario for free — ``patient_fleet:diurnal`` is the
patient-monitoring fleet driven by a diurnal rate curve, and a new traffic
model immediately applies to every archetype (and vice versa).

The platform stays policy-free in the Dearle et al. sense: nothing in the
runner knows what any particular archetype or traffic model does; the
registry is the only coupling point, and it couples by name.

Scenario names are ``"<archetype>:<traffic>"``. Everything a scenario does
derives from ``(name, seed)`` — see :mod:`repro.workloads.runner` for the
determinism contract.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.history import History, Row


class Archetype:
    """Base class for application archetypes.

    Subclasses are registered with :func:`archetype` and must implement
    :meth:`issue`; the scenario runner owns all arrival timing, latency
    measurement, and scorecard assembly, so an archetype only decides what
    one request *is* and reports archetype-specific detail at the end.

    Construction builds the complete deployment (network, fabric, service
    endpoints) as a pure function of ``seed``; ``self.network`` must be set
    (the runner reads its simulator clock, drives its event loop, and sums
    its battery drain into the scorecard's energy section).
    """

    #: Filled in by the :func:`archetype` decorator.
    name: str = ""
    description: str = ""
    #: Nominal offered rate handed to open-loop traffic models (req/s).
    rate_rps: float = 1.0
    #: The per-request latency target the SLO section judges against.
    slo_target_s: float = 0.5
    #: Opening balances of the ledger an archetype records ``("ledger",)``
    #: history against; the simtest replay builds its ledger model from it.
    initial_accounts: Dict[str, int] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.network: Any = None
        #: Set by the runner before traffic starts. Recording history must
        #: never change what an archetype *does* (same wire traffic either
        #: way), only what it remembers for the simtest oracles.
        self.record_history = False
        self._history = History(lambda: self.sim.now())

    # ------------------------------------------------------------- contract

    @property
    def sim(self) -> Any:
        return self.network.sim

    def issue(self, index: int, size: int,
              done: Callable[[str], None]) -> None:
        """Issue one request of ``size`` payload bytes.

        ``done`` must be called exactly once with ``"ok"``, ``"failed"``,
        or ``"refused"`` (admission-shed before any network traffic) when
        the request settles; requests still pending at the end of the run
        are counted (as SLO violations) by the runner, not by the archetype.
        """
        raise NotImplementedError

    def record(self, obj: Tuple[Any, ...], client: str, op: str,
               args: Tuple[Any, ...], promise: Any) -> None:
        """Remember one operation on ``obj`` for the simtest oracles (only
        while :attr:`record_history` is set)."""
        if self.record_history:
            self._history.record(obj, client, op, args, promise)

    # ---------------------------------------------------- optional hooks

    def fault_targets(self) -> Sequence[str]:
        """Node ids a chaos mix may crash without destroying the scenario
        outright (never the node hosting the only copy of the service).
        With none declared, ``churn`` refuses to compose."""
        return ()

    def partition_groups(self) -> Optional[List[List[str]]]:
        """Candidate partition groups for the ``partition`` mix, or None
        if this deployment has no meaningful split (the mix then refuses
        to compose)."""
        return None

    def detail(self) -> Dict[str, Any]:
        """Archetype-specific scorecard section (deterministic values only)."""
        return {}

    def history(self) -> List[Row]:
        """Operation history for the simtest oracles, as
        ``(obj, client, op, args, invoke, response, result)`` tuples —
        what :meth:`record` remembered, the same :class:`History` the
        simtest worlds record into. Empty when the archetype has nothing
        linearizable to check."""
        return self._history.rows()

    def consistency_violations(self) -> List[str]:
        """End-of-run consistency checks beyond linearizability (e.g.
        acked-implies-applied on every replica). Empty means clean."""
        return []

    def close(self) -> None:
        """Tear down transports and timers."""


class ArchetypeInfo:
    __slots__ = ("name", "factory", "description")

    def __init__(self, name: str, factory: Callable[[int], Archetype],
                 description: str) -> None:
        self.name = name
        self.factory = factory
        self.description = description


class TrafficInfo:
    __slots__ = ("name", "factory", "description")

    def __init__(self, name: str, factory: Callable[[], Any],
                 description: str) -> None:
        self.name = name
        self.factory = factory
        self.description = description


#: The registries. Plugins land here via the decorators below; the
#: built-ins register at import of :mod:`repro.workloads`.
ARCHETYPES: Dict[str, ArchetypeInfo] = {}
TRAFFIC_MODELS: Dict[str, TrafficInfo] = {}

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _check_name(kind: str, name: str) -> None:
    if not name or not set(name) <= _NAME_CHARS:
        raise ConfigurationError(
            f"{kind} name {name!r} must be non-empty lowercase "
            "[a-z0-9_] (it becomes half of a 'archetype:traffic' scenario id)"
        )


def archetype(
    name: str,
    *,
    rate_rps: float,
    slo_target_s: float,
    description: str = "",
) -> Callable[[type], type]:
    """Class decorator registering an :class:`Archetype` subclass."""
    _check_name("archetype", name)

    def register(cls: type) -> type:
        if name in ARCHETYPES:
            raise ConfigurationError(f"archetype {name!r} already registered")
        if not issubclass(cls, Archetype):
            raise ConfigurationError(
                f"archetype {name!r} must subclass workloads.Archetype"
            )
        cls.name = name
        cls.rate_rps = float(rate_rps)
        cls.slo_target_s = float(slo_target_s)
        cls.description = description
        ARCHETYPES[name] = ArchetypeInfo(name, cls, description)
        return cls

    return register


def traffic_model(name: str, *, description: str = "") -> Callable[[type], type]:
    """Class decorator registering a :class:`~repro.workloads.traffic.TrafficModel`."""
    _check_name("traffic model", name)

    def register(cls: type) -> type:
        if name in TRAFFIC_MODELS:
            raise ConfigurationError(
                f"traffic model {name!r} already registered"
            )
        cls.name = name
        cls.description = description
        TRAFFIC_MODELS[name] = TrafficInfo(name, cls, description)
        return cls

    return register


# --------------------------------------------------------------- lookup


def scenario_names() -> List[str]:
    """Every registered scenario: the full archetype x traffic crossing."""
    return [
        f"{arch}:{traffic}"
        for arch in sorted(ARCHETYPES)
        for traffic in sorted(TRAFFIC_MODELS)
    ]


def parse_scenario(name: str) -> Tuple[ArchetypeInfo, TrafficInfo]:
    """Resolve ``"archetype:traffic"`` to its registry entries."""
    parts = name.split(":")
    if len(parts) != 2:
        raise ConfigurationError(
            f"scenario name {name!r} must be 'archetype:traffic'"
        )
    arch, traffic = parts
    if arch not in ARCHETYPES:
        raise ConfigurationError(
            f"unknown archetype {arch!r}; registered: {sorted(ARCHETYPES)}"
        )
    if traffic not in TRAFFIC_MODELS:
        raise ConfigurationError(
            f"unknown traffic model {traffic!r}; "
            f"registered: {sorted(TRAFFIC_MODELS)}"
        )
    return ARCHETYPES[arch], TRAFFIC_MODELS[traffic]
