"""Compile ``(archetype, traffic, seed)`` into a run; emit a scorecard.

The determinism contract: a scorecard is a pure function of
``(scenario name, seed)`` plus the explicit spec overrides. All
randomness flows through label-split streams of the seed, and all times
are virtual — so two runs of the same spec produce byte-identical
canonical scorecards (:func:`repro.workloads.scorecard.canonical_bytes`),
in this process or any other.

Division of labor: the *archetype* decides what one request is, the
*traffic model* decides when requests arrive, and the runner owns
everything else — scheduling, latency measurement, SLO judgment, energy
accounting, optional chaos fault composition, and scorecard assembly.
An open-loop schedule is streamed, not pre-scheduled: one
:meth:`~repro.netsim.simulator.Simulator.schedule_series` call keeps a
single pending arrival in the event queue, whatever the horizon.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram
from repro.obs.tracing import TRACER
from repro.workloads.mixes import compose
from repro.workloads.registry import (
    ARCHETYPES,
    TRAFFIC_MODELS,
    Archetype,
    parse_scenario,
)
from repro.workloads.scorecard import validate_scorecard

#: Default scenario length. Long enough for a full diurnal cycle and a
#: flash-crowd spike-and-recovery at the built-in archetype rates.
DEFAULT_HORIZON_S = 24.0

#: Quiesce time past the horizon: in-flight requests settle, replica
#: groups converge, chaos heals complete before invariants are judged.
GRACE_S = 8.0

#: A scenario meets its SLO when at most this fraction of arrivals
#: violated the latency target (or failed outright, or never completed).
SLO_BUDGET = 0.05


class ScenarioSpec:
    """One scenario configuration; everything derives from these fields."""

    __slots__ = ("archetype", "traffic", "seed", "horizon_s", "chaos_mix",
                 "record_history")

    def __init__(self, archetype: str, traffic: str, seed: int = 0,
                 horizon_s: float = DEFAULT_HORIZON_S,
                 chaos_mix: Optional[str] = None,
                 record_history: bool = False) -> None:
        self.archetype = archetype
        self.traffic = traffic
        self.seed = seed
        self.horizon_s = horizon_s
        self.chaos_mix = chaos_mix
        self.record_history = record_history
        parse_scenario(self.name)  # raises on unknown halves
        if self.horizon_s <= 0:
            raise ConfigurationError(
                f"horizon must be positive, got {self.horizon_s!r}"
            )

    @property
    def name(self) -> str:
        return f"{self.archetype}:{self.traffic}"


def parse_spec(name: str, seed: int = 0, **overrides: Any) -> ScenarioSpec:
    arch_info, traffic_info = parse_scenario(name)
    return ScenarioSpec(
        archetype=arch_info.name, traffic=traffic_info.name, seed=seed,
        **overrides,
    )


class ScenarioRun:
    """Builds the deployment, drives traffic, and assembles the scorecard."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

        self.archetype: Archetype = ARCHETYPES[spec.archetype].factory(spec.seed)
        self.archetype.record_history = spec.record_history
        self.traffic = TRAFFIC_MODELS[spec.traffic].factory()
        if self.archetype.network is None:
            raise ConfigurationError(
                f"archetype {spec.archetype!r} did not set self.network"
            )
        self.sim = self.archetype.network.sim
        self.latency = Histogram()

        # Per-node energy baseline (finite batteries only).
        self._battery_start: Dict[str, float] = {}
        for node in self.archetype.network.nodes():
            if math.isfinite(node.battery.capacity):
                self._battery_start[node.node_id] = node.battery.remaining

        self.issued = 0
        self.offered_bytes = 0
        self.ok = 0
        self.failed = 0
        self.refused = 0
        self.slo_violations = 0

        self.fault_counts: Dict[str, int] = {}
        self.last_heal_s = 0.0
        if spec.chaos_mix is not None:
            self.fault_counts, self.last_heal_s = compose(
                spec.chaos_mix, self.archetype, spec.seed,
                start_s=0.25 * spec.horizon_s, end_s=0.75 * spec.horizon_s,
                label=spec.name,
            )

        if self.traffic.closed_loop:
            self._schedule_closed_loop()
        else:
            self._schedule_open_loop()

    # ------------------------------------------------------------- traffic

    def _issue(self, index: int, sizes, and_then=None) -> None:
        """Issue request ``index`` of ``sizes[index]`` bytes.

        The open loop's series calls this directly with the schedule's
        sizes array, with no adapter frame per arrival; the closed loop
        passes a one-entry mapping. ``and_then`` runs once the request
        settles.
        """
        size = sizes[index]
        self.issued += 1
        self.offered_bytes += size
        started = self.sim.now()
        once = {"settled": False}

        def done(status: str) -> None:
            if once["settled"]:
                return
            once["settled"] = True
            if status == "ok":
                self.ok += 1
                elapsed = self.sim.now() - started
                self.latency.observe(elapsed)
                if elapsed > self.archetype.slo_target_s:
                    self.slo_violations += 1
            elif status == "refused":
                self.refused += 1
            else:
                self.failed += 1
                self.slo_violations += 1
            if and_then is not None:
                and_then()

        self.archetype.issue(index, size, done)

    def _schedule_open_loop(self) -> None:
        times, sizes = self.traffic.arrivals(
            self.spec.seed, self.spec.horizon_s, self.archetype.rate_rps
        )
        self.sim.schedule_series(times, self._issue, sizes)

    def _schedule_closed_loop(self) -> None:
        counter = {"index": 0}
        size = self.traffic.size_bytes

        def loop(client: int, rng) -> None:
            if self.sim.now() >= self.spec.horizon_s:
                return
            index = counter["index"]
            counter["index"] += 1

            def next_request() -> None:
                # The closed loop: think, then issue the next request.
                self.sim.schedule_at(
                    self.sim.now()
                    + self.traffic.think_s(rng, self.archetype.rate_rps),
                    loop, client, rng,
                )

            self._issue(index, {index: size}, and_then=next_request)

        for client in range(self.traffic.clients):
            rng = self.traffic.client_stream(self.spec.seed, client)
            first = self.traffic.think_s(rng, self.archetype.rate_rps)
            self.sim.schedule_at(first, loop, client, rng)

    # --------------------------------------------------------------- running

    def run(self) -> Dict[str, Any]:
        spec = self.spec
        TRACER.instant("workload.start", scenario=spec.name, seed=spec.seed)
        self.sim.run_until(spec.horizon_s)
        self.sim.run_until(
            max(spec.horizon_s, self.last_heal_s) + GRACE_S
        )
        card = self._scorecard()
        problems = validate_scorecard(card)
        if problems:  # a registry bug, not a scenario outcome
            raise ConfigurationError(
                f"scenario {spec.name!r} produced an invalid scorecard: "
                + "; ".join(problems)
            )
        TRACER.instant("workload.end", scenario=spec.name, seed=spec.seed,
                       ok=card["ok"])
        self.archetype.close()
        return card

    def _scorecard(self) -> Dict[str, Any]:
        spec = self.spec
        arch = self.archetype
        pending = self.issued - self.ok - self.failed - self.refused
        consumed = 0.0
        capacity = 0.0
        for node in arch.network.nodes():
            start = self._battery_start.get(node.node_id)
            if start is not None:
                consumed += start - node.battery.remaining
                capacity += node.battery.capacity
        # A request that never completed missed its target too.
        slo_violations = self.slo_violations + pending
        violation_fraction = (
            slo_violations / self.issued if self.issued else 0.0
        )
        violations = arch.consistency_violations()
        detail = dict(arch.detail())
        detail["consistency_violations"] = sorted(violations)
        return {
            "scenario": spec.name,
            "archetype": spec.archetype,
            "traffic": spec.traffic,
            "seed": spec.seed,
            "horizon_s": round(spec.horizon_s, 9),
            "offered": {
                "arrivals": self.issued,
                "bytes": self.offered_bytes,
                "closed_loop": bool(self.traffic.closed_loop),
            },
            "latency": {
                "count": self.latency.count,
                "p50_s": round(self.latency.quantile(0.50), 9),
                "p95_s": round(self.latency.quantile(0.95), 9),
                "p99_s": round(self.latency.quantile(0.99), 9),
                "max_s": round(
                    self.latency.maximum if self.latency.count else 0.0, 9
                ),
            },
            "goodput": {
                "ok": self.ok,
                "ok_per_s": round(self.ok / spec.horizon_s, 9),
            },
            "energy": {
                "consumed": round(consumed, 9),
                "capacity": round(capacity, 9),
            },
            "slo": {
                "target_s": round(arch.slo_target_s, 9),
                "violations": slo_violations,
                "violation_fraction": round(violation_fraction, 9),
                "met": violation_fraction <= SLO_BUDGET,
            },
            "drops": {
                "refused": self.refused,
                "failed": self.failed,
                "pending": pending,
            },
            "faults": dict(self.fault_counts),
            "traffic_spec": self.traffic.spec(),
            "archetype_detail": detail,
            "ok": not violations,
        }


def run_scenario(name: str, seed: int = 0, **overrides: Any) -> Dict[str, Any]:
    """Run one scenario end to end; returns its scorecard."""
    return ScenarioRun(parse_spec(name, seed, **overrides)).run()


def sweep_rows(name: str, seed: int, **overrides: Any) -> Dict[str, Any]:
    """One flat result row per scenario run, for the sweep runner."""
    card = run_scenario(name, seed, **overrides)
    return {
        "scenario": name,
        "seed": seed,
        "arrivals": card["offered"]["arrivals"],
        "ok": card["goodput"]["ok"],
        "ok_per_s": card["goodput"]["ok_per_s"],
        "p95_s": card["latency"]["p95_s"],
        "slo_violations": card["slo"]["violations"],
        "slo_met": card["slo"]["met"],
        "refused": card["drops"]["refused"],
        "failed": card["drops"]["failed"],
        "pending": card["drops"]["pending"],
        "energy_consumed": card["energy"]["consumed"],
        "consistent": card["ok"],
    }
