"""The six workloads and the one table that sizes them.

A workload object is built (set-up: worlds, fleets, pre-scheduled
arrivals), then ``run()`` is the timed region, then ``outcome()`` checks
the outputs and reads simulated results and public counters. Everything is
a pure function of ``(size row, seed)``; only generated inputs reach the
program. Only public entry points of ``repro`` are used (README lists the
names this freezes).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.core.feasibility import satisfies
from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.core.sensors import SensorInfo
from repro.netsim.chaos import run_campaign
from repro.netsim.medium import RadioProfile
from repro.netsim.mobility import LinearMobility
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.topology import grid
from repro.util.rng import split_rng
from repro.workloads import (
    DEFAULT_HORIZON_S,
    ScenarioRun,
    canonical_bytes,
    parse_spec,
    validate_scorecard,
)

#: Equal virtual-time slices a simulator is driven in, so host cost per op
#: early and late in a run can be compared (workloads.growth_ratio).
SLICES = 20

#: Sizing guard: no finite battery may end a run below this fraction.
MIN_BATTERY_FRAC = 0.25


class BenchmarkError(Exception):
    """An output the benchmark checks was wrong; no metric is printed."""


@dataclass(frozen=True)
class Size:
    """One row of the sizing table."""

    full: Dict[str, Any]
    smoke: Dict[str, Any]


# The single sizing table. Each full row is ~2 s of timed host work on the
# 2-core box (run.py repeats it in fresh child processes); each smoke row
# well under a second.
#
# DO NOT "fix" a short run by raising horizon_s. Archetype batteries are
# finite, and past these measured depletion horizons dead nodes change the
# traffic mix (at horizon 9600 api_rpc ends with 46 764 of 153 983 requests
# failed because the hub died):
#   telemetry_ledger  primary n1_1 dies at ~3.5k virtual s
#   api_rpc           hub dies before 9.6k s (0.41 of its battery left at 2.4k)
#   chat_fanout       hub dies at ~1.5k s
#   patient_fleet     hub dead before 2.4k s (not used here for that reason)
# More work means more consecutive seeds or repeats, never a longer horizon.
# The guard in _check_batteries enforces it.
SIZES: Dict[str, Size] = {
    "ledger_write": Size(
        full={"scenario": "telemetry_ledger:heavy_tail", "horizon_s": 1000.0},
        smoke={"scenario": "telemetry_ledger:heavy_tail", "horizon_s": 60.0},
    ),
    "api_flash": Size(
        full={"scenario": "api_rpc:flash_crowd", "horizon_s": 2400.0},
        smoke={"scenario": "api_rpc:flash_crowd", "horizon_s": 120.0},
    ),
    "chat_read": Size(
        full={"scenario": "chat_fanout:diurnal", "horizon_s": 560.0},
        smoke={"scenario": "chat_fanout:diurnal", "horizon_s": 80.0},
    ),
    "grid_failover": Size(
        full={"campaigns": 2, "overrides": {}},  # the pinned 75 s campaign
        smoke={"campaigns": 1, "overrides": {
            "duration_s": 30.0, "heal_deadline_s": 16.0, "fault_start_s": 5.0,
            "transfer_stop_s": 15.0, "bulk_messages": 30}},
    ),
    "swarm_beacon": Size(
        full={"side": 32, "rounds": 20},
        smoke={"side": 12, "rounds": 4},
    ),
    "milan_lifetime": Size(
        full={"patients": 40},
        smoke={"patients": 4},
    ),
}


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _check_batteries(name: str, network: Any) -> float:
    """The sizing guard; returns the lowest finite battery fraction (1.0
    when every node is mains powered)."""
    lowest = 1.0
    for node in network.nodes():
        battery = node.battery
        if not math.isfinite(battery.capacity):
            continue
        lowest = min(lowest, battery.fraction_remaining)
    if lowest < MIN_BATTERY_FRAC:
        raise BenchmarkError(
            f"sizing table row {name!r} is too long: a battery ended at "
            f"{lowest:.3f} of capacity (< {MIN_BATTERY_FRAC}); shorten the "
            "row, do not raise horizon_s (see the table's comment)"
        )
    return lowest


def _run_sliced(run_until: Callable[[float], Any], end_s: float,
                progress: Callable[[], int]) -> List[Tuple[int, float]]:
    """Drive a simulator to ``end_s`` in SLICES equal virtual-time slices;
    returns (ops attempted, host seconds) of each slice."""
    clock = time.perf_counter
    slices = []
    done, before = 0, clock()
    for k in range(1, SLICES + 1):
        run_until(end_s * k / SLICES)
        ops, now = progress(), clock()
        slices.append((ops - done, now - before))
        done, before = ops, now
    return slices


# --------------------------------------------------------------- scenarios


class ScenarioWorkload:
    """A registered ``archetype:traffic`` scenario at a benchmark horizon.

    One op is one arrival; ok ops are those the archetype settled ``ok``.
    """

    def __init__(self, name: str, row: Dict[str, Any], seed: int):
        self.name = name
        self.horizon_s = float(row["horizon_s"])
        self.scenario = ScenarioRun(
            parse_spec(row["scenario"], seed, horizon_s=self.horizon_s)
        )
        self.card: Dict[str, Any] = {}
        self.slices: List[Tuple[int, float]] = []

    def run(self) -> None:
        scenario = self.scenario
        self.slices = _run_sliced(scenario.sim.run_until, self.horizon_s,
                                  lambda: scenario.issued)
        self.card = scenario.run()  # the grace period, then the scorecard

    def outcome(self) -> Dict[str, Any]:
        card = self.card
        problems = validate_scorecard(card)
        if problems:
            raise BenchmarkError(f"{self.name}: invalid scorecard: {problems}")
        if not card["ok"]:
            raise BenchmarkError(
                f"{self.name}: consistency violations: "
                f"{card['archetype_detail']['consistency_violations']}"
            )
        if card["drops"]["pending"]:
            raise BenchmarkError(
                f"{self.name}: {card['drops']['pending']} requests pending"
            )
        network = self.scenario.archetype.network
        min_frac = _check_batteries(self.name, network)
        ops = card["offered"]["arrivals"]
        ok = card["goodput"]["ok"]
        detail = card["archetype_detail"]
        admission = detail.get("admission", {})
        return {
            "ops": ops,
            "ok": ok,
            "digest": _sha256(canonical_bytes(card)),
            "slices": self.slices,
            "sim": {
                "p50_ms": card["latency"]["p50_s"] * 1e3,
                "p99_ms": card["latency"]["p99_s"] * 1e3,
                "energy_mj_per_op": card["energy"]["consumed"] * 1e3 / ok,
            },
            "counters": {
                "events": self.scenario.sim.events_processed,
                "transmissions": network.medium.transmissions,
                "deliveries": network.medium.deliveries,
                "min_battery_frac": min_frac,
                "tuples_stored": detail.get("tuples_stored", 0),
                "reads": detail.get("reads", 0),
                "commits": detail.get("acked", 0),
                "admitted": sum(c["admitted"] for c in admission.values()),
                "rejected": sum(c["rejected"] for c in admission.values()),
                "arrivals": ops,
                "offered_bytes": card["offered"]["bytes"],
            },
        }


def preflight(golden_dir: Path) -> None:
    """Drive the three scenarios sliced, at the default horizon and seed 0,
    and require the checked-in golden scorecards: the sliced drive must not
    change behaviour, and the program must still be the one the goldens
    describe."""
    for name, size in SIZES.items():
        scenario = size.full.get("scenario")
        if scenario is None:
            continue
        workload = ScenarioWorkload(
            name, {"scenario": scenario, "horizon_s": DEFAULT_HORIZON_S}, 0
        )
        workload.run()
        path = golden_dir / (scenario.replace(":", "__") + "__seed0.json")
        golden = json.loads(path.read_text())
        if canonical_bytes(golden) != canonical_bytes(workload.card):
            raise BenchmarkError(
                f"pre-flight: sliced {scenario} differs from {path}"
            )


# ------------------------------------------------------------ grid_failover


class GridFailover:
    """Failover chaos campaigns on the 3x3 multi-hop grid, consecutive
    seeds. One op is one bulk message sent or one ledger / replicated
    transfer attempted. ``run_campaign`` builds and runs in one call, so
    world construction is inside the timed region here."""

    def __init__(self, name: str, row: Dict[str, Any], seed: int):
        self.name = name
        self.seeds = range(seed, seed + row["campaigns"])
        self.overrides = row["overrides"]
        self.cards: List[Dict[str, Any]] = []

    def run(self) -> None:
        self.cards = [run_campaign("failover", seed, **self.overrides)
                      for seed in self.seeds]

    def outcome(self) -> Dict[str, Any]:
        ops = ok = 0
        counters = dict.fromkeys(
            ("retransmissions", "give_ups", "commits", "election_rounds",
             "hb_detected"), 0)
        recover = []
        for card in self.cards:
            bad = [k for k, held in card["invariants"].items() if not held]
            if bad or card["violations"] or not card["ok"]:
                raise BenchmarkError(
                    f"{self.name}: seed {card['seed']} broke {bad}: "
                    f"{card['violations']}"
                )
            delivery, ledger = card["delivery"], card["ledger"]
            replication = card["replication"]
            transfers = replication["transfers"]
            ops += (delivery["sent"] + ledger["attempted"]
                    + transfers["attempted"])
            ok += delivery["delivered"] + ledger["acked"] + transfers["acked"]
            counters["retransmissions"] += delivery["retransmissions"]
            counters["give_ups"] += delivery["give_ups"]
            counters["commits"] += transfers["acked"]
            counters["election_rounds"] += replication["election_rounds"]
            counters["hb_detected"] += card["heartbeat"]["detected"]
            recover.append(card["reconvergence"]["rpc_s"])
        return {
            "ops": ops,
            "ok": ok,
            "digest": _sha256(*map(canonical_bytes, self.cards)),
            "slices": [],
            "sim": {"recover_s": statistics.median(recover)},
            "counters": counters,
        }


# ------------------------------------------------------------- swarm_beacon

# A benchmark-local copy of the staggered-beacon world of
# benchmarks/scale.py (not imported: that file is a ledger of its own).
SWARM_SPACING_M = 30.0
SWARM_ROUND_PERIOD_S = 2.0
SWARM_MOBILE_EVERY = 10
SWARM_DRIFT_MPS = (1.0, 0.5)


class SwarmBeacon:
    """Every node of a side x side grid broadcasts one beacon per round at
    its own fresh timestamp; one node in ten drifts. One op is one beacon
    broadcast (all are ok: a broadcast has no receiver to fail)."""

    def __init__(self, name: str, row: Dict[str, Any], seed: int):
        # 802.11 rates, range and loss with no contention jitter (a slotted
        # swarm MAC): all receivers of a broadcast share one delivery time.
        profile = RadioProfile(
            name="802.11-swarm", bandwidth_bps=11e6, range_m=100.0,
            base_latency_s=0.001, loss_probability=0.01,
            contention_window_s=0.0,
        )
        self.name = name
        self.rounds = row["rounds"]
        self.network = grid(row["side"], row["side"], spacing=SWARM_SPACING_M,
                            radio_profile=profile, seed=seed, vectorized=None)
        sim, medium = self.network.sim, self.network.medium
        nodes = self.network.nodes()
        index = {node.node_id: i for i, node in enumerate(nodes)}
        # The delivery trace is kept as packed arrays (12 bytes a delivery),
        # so peak_rss_mb measures the program and not the benchmark's log.
        self.times = array("d")
        self.pairs = array("I")
        record_time, record_pair = self.times.append, self.pairs.append
        now = sim.now

        def on_packet(node, packet):
            record_time(now())
            record_pair(index[node.node_id] << 16 | index[packet.source])

        for i, node in enumerate(nodes):
            node.set_packet_handler(on_packet)
            if i % SWARM_MOBILE_EVERY == 0:
                node.set_mobility(LinearMobility(
                    start=node.position, velocity=SWARM_DRIFT_MPS,
                    start_time=0.0,
                ))

        def beacon(node):
            medium.transmit(node.node_id, Packet(
                source=node.node_id, destination=BROADCAST, payload=b"b",
                payload_bytes=16,
            ))

        step = SWARM_ROUND_PERIOD_S * 0.8 / len(nodes)
        for round_index in range(self.rounds):
            base = 0.05 + round_index * SWARM_ROUND_PERIOD_S
            for i, node in enumerate(nodes):
                sim.schedule_at(base + i * step, beacon, node)
        self.scheduled = self.rounds * len(nodes)
        self.slices: List[Tuple[int, float]] = []

    def run(self) -> None:
        sim, medium = self.network.sim, self.network.medium
        self.slices = _run_sliced(
            sim.run_until, self.rounds * SWARM_ROUND_PERIOD_S,
            lambda: medium.transmissions)
        sim.run()

    def outcome(self) -> Dict[str, Any]:
        medium = self.network.medium
        if medium.transmissions != self.scheduled:
            raise BenchmarkError(
                f"{self.name}: {medium.transmissions} broadcasts, "
                f"{self.scheduled} scheduled"
            )
        if len(self.times) != medium.deliveries:
            raise BenchmarkError(
                f"{self.name}: handlers saw {len(self.times)} deliveries, "
                f"the medium counted {medium.deliveries}"
            )
        return {
            "ops": self.scheduled,
            "ok": self.scheduled,
            "digest": _sha256(self.times.tobytes(), self.pairs.tobytes()),
            "slices": self.slices,
            "sim": {},
            "counters": {
                "events": self.network.sim.events_processed,
                "transmissions": medium.transmissions,
                "deliveries": medium.deliveries,
                "min_battery_frac": _check_batteries(self.name, self.network),
                "arrivals": self.scheduled,
                "offered_bytes": self.scheduled * 16,
            },
        }


# ----------------------------------------------------------- milan_lifetime

# The E10 fleet and patient schedule, copied (not imported from
# repro.experiments) so the experiment can change without moving this.
MILAN_FLEET = (
    ("bp-cuff", {"blood_pressure": 0.95}, 0.020, 10.0),
    ("bp-wrist", {"blood_pressure": 0.75}, 0.008, 10.0),
    ("bp-ankle", {"blood_pressure": 0.70}, 0.007, 9.0),
    ("ecg", {"heart_rate": 0.95, "blood_pressure": 0.30}, 0.030, 12.0),
    ("ppg", {"heart_rate": 0.80, "oxygen_saturation": 0.90}, 0.010, 8.0),
    ("spo2", {"oxygen_saturation": 0.85}, 0.012, 9.0),
    ("spo2-b", {"oxygen_saturation": 0.80}, 0.009, 7.0),
    ("hr-strap", {"heart_rate": 0.85}, 0.006, 6.0),
    ("hr-watch", {"heart_rate": 0.70}, 0.005, 6.0),
)
MILAN_SCHEDULE = (("rest", 120.0), ("exercise", 60.0), ("rest", 120.0),
                  ("distress", 20.0))
MILAN_PERIOD_S = sum(duration for _state, duration in MILAN_SCHEDULE)
MILAN_STEP_S = 5.0
MILAN_ENERGY_JITTER = 0.2


def _milan_state_at(time_s: float) -> str:
    phase = time_s % MILAN_PERIOD_S
    for state, duration in MILAN_SCHEDULE:
        if phase < duration:
            return state
        phase -= duration
    return MILAN_SCHEDULE[-1][0]


def _all_on_lifetime(fleet: List[SensorInfo], requirements: Any) -> float:
    """Lifetime of a fleet with every sensor streaming (no middleware)."""
    sensors = list(fleet)
    elapsed = 0.0
    while True:
        alive = [s for s in sensors if not s.depleted]
        needed = requirements.for_state(_milan_state_at(elapsed))
        if not satisfies(alive, needed):
            return elapsed
        sensors = [s.drained(s.active_power_w * MILAN_STEP_S)
                   for s in sensors]
        elapsed += MILAN_STEP_S


class MilanLifetime:
    """One Milan per patient over a jittered nine-sensor fleet, stepped
    until the application's QoS cannot be met. One op is one
    ``reconfigure()`` round; a round is ok when it left the application
    satisfied."""

    def __init__(self, name: str, row: Dict[str, Any], seed: int):
        self.name = name
        self.patients = []
        self.fleets = []
        for p in range(row["patients"]):
            rng = split_rng(seed, f"patient{p}")
            policy = health_monitor_policy()
            if p % 2:
                policy.selection = "max_lifetime"
            fleet = [
                SensorInfo(sensor_id, dict(reliabilities), power_w,
                           energy_j * rng.uniform(1 - MILAN_ENERGY_JITTER,
                                                  1 + MILAN_ENERGY_JITTER))
                for sensor_id, reliabilities, power_w, energy_j in MILAN_FLEET
            ]
            milan = Milan(policy)
            for sensor in fleet:
                milan.add_sensor(sensor)
            self.patients.append(milan)
            self.fleets.append(fleet)
        self.lifetimes: List[float] = []
        self.ops = 0
        self.ok = 0

    def run(self) -> None:
        ops = ok = 0
        for milan in self.patients:
            elapsed = 0.0
            while True:
                state = _milan_state_at(elapsed)
                if milan.state != state:
                    milan.set_state(state)
                alive = [s for s in milan.sensors.values() if not s.depleted]
                if not satisfies(alive, milan.requirements()):
                    break
                milan.reconfigure()
                ops += 1
                ok += milan.application_satisfied()
                milan.advance_time(MILAN_STEP_S)
                elapsed += MILAN_STEP_S
            self.lifetimes.append(elapsed)
        self.ops, self.ok = ops, ok

    def outcome(self) -> Dict[str, Any]:
        if self.ok != self.ops:
            raise BenchmarkError(
                f"{self.name}: {self.ops - self.ok} of {self.ops} "
                "reconfigurations left the application unsatisfied"
            )
        gains = []
        consumed_j = 0.0
        hits = lookups = reconfigurations = 0
        for milan, fleet, lifetime in zip(self.patients, self.fleets,
                                          self.lifetimes):
            gains.append(lifetime / _all_on_lifetime(
                fleet, milan.policy.requirements))
            consumed_j += sum(
                before.energy_j - milan.sensors[before.sensor_id].energy_j
                for before in fleet
            )
            stats = milan.engine.stats()
            hits += stats["feasibility_hits"]
            lookups += stats["feasibility_hits"] + stats["feasibility_misses"]
            reconfigurations += milan.reconfigurations
        lifetime_x = statistics.fmean(gains)
        if lifetime_x <= 3.0:
            raise BenchmarkError(
                f"{self.name}: MiLAN lifetime is {lifetime_x:.2f}x all-on; "
                "the paper's headline needs > 3x"
            )
        return {
            "ops": self.ops,
            "ok": self.ok,
            "digest": _sha256(canonical_bytes({
                "lifetimes": self.lifetimes,
                "active": [sorted(m.active_sensor_ids())
                           for m in self.patients],
                "reconfigurations": reconfigurations,
            })),
            "slices": [],
            "sim": {
                "lifetime_x": lifetime_x,
                "energy_mj_per_op": consumed_j * 1e3 / self.ops,
            },
            "counters": {
                "reconfigurations": reconfigurations,
                "cache_hit_rate": hits / lookups if lookups else 0.0,
                "arrivals": self.ops,
            },
        }


WORKLOADS = {
    "ledger_write": ScenarioWorkload,
    "api_flash": ScenarioWorkload,
    "chat_read": ScenarioWorkload,
    "grid_failover": GridFailover,
    "swarm_beacon": SwarmBeacon,
    "milan_lifetime": MilanLifetime,
}


def build(name: str, seed: int, smoke: bool = False) -> Any:
    size = SIZES[name]
    return WORKLOADS[name](name, size.smoke if smoke else size.full, seed)
