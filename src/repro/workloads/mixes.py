"""The fault mixes: one table, :data:`MIXES`, from mix name to behaviour.

A row is the *policy* the chaos campaign (:mod:`repro.workloads.campaign`,
the mechanism) plugs in: a :class:`Mix`, whose five hooks the campaign
calls in a fixed order and which reaches the deployment through
``self.campaign``. The campaign never asks which row it is running.

The three fault-only rows also have a *compose form* (:func:`compose`):
the same shapes of faults on a deployment someone else built (a workload
scenario run with ``chaos_mix=...``). The two forms draw differently on
purpose, and each is pinned by goldens: a campaign storm is three crashes,
a nested double crash, a blip and a loss burst, sized in seconds; a
composed storm is at most two crashes and a loss burst, sized in fractions
of whatever window the scenario offers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.milan import Milan
from repro.core.overload import OverloadGovernor, queue_pressure, rejection_pressure
from repro.core.policy import health_monitor_policy
from repro.core.sensors import SensorInfo
from repro.errors import AdmissionRefused, ConfigurationError
from repro.netsim.failures import FailureInjector
from repro.netsim.mobility import RandomWaypointMobility
from repro.obs.metrics import nearest_rank
from repro.qos.admission import AdmissionController, PriorityClass
from repro.replication.check import check_group, close_group, group_summary
from repro.replication.client import GroupClient
from repro.replication.replica import ReplicationParams, deploy_group
from repro.replication.services import LedgerMachine, ReplicatedLedger
from repro.qos.bandwidth import BandwidthAllocator
from repro.transport.base import Address
from repro.transport.pacing import PacedTransport
from repro.util.rng import split_rng

_REPL_PORT = "rled"

#: The failover mix's replica group: the middle column of the 3x3 grid,
#: so replication traffic (and the election) genuinely crosses hops.
_REPL_MEMBERS = ("n0_1", "n1_1", "n2_1")
_REPL_PRIMARY = "n2_1"  # highest id: the member Bully election picks

#: Coarse group timers for the multi-hop, clock-skewed deployment.
_REPL_PARAMS = ReplicationParams(
    hb_interval_s=1.0,
    hb_timeout_multiplier=2.5,
    elect_timeout_s=1.5,
    sync_timeout_s=1.5,
    coord_timeout_s=3.0,
    beacon_interval_s=1.0,
    write_timeout_s=6.0,
)

#: Flashcrowd mix: one crowd arrival every CROWD_INTERVAL_S during the
#: spike (40 req/s) against a 10 req/s crowd class — the controller must
#: shed roughly three of every four arrivals.
CROWD_INTERVAL_S = 0.025
CROWD_RATE_RPS = 10.0
CROWD_P99_BOUND_S = 1.0

#: The flashcrowd mix's QoS floor: the per-variable reliability the
#: overload governor must never degrade below, whatever the load.
_QOS_FLOOR = {"blood_pressure": 0.45, "heart_rate": 0.4,
              "oxygen_saturation": 0.4}

#: The live MiLAN fleet the flashcrowd governor reconfigures (same
#: reliabilities as the campaign's discovered suppliers, built directly so
#: the governor's subject does not depend on discovery timing).
_FLASH_SENSORS = (
    SensorInfo("bp-cuff", {"blood_pressure": 0.95}, active_power_w=0.02),
    SensorInfo("ecg", {"heart_rate": 0.95, "blood_pressure": 0.3},
               active_power_w=0.03),
    SensorInfo("ppg", {"heart_rate": 0.8, "oxygen_saturation": 0.9},
               active_power_w=0.01),
    SensorInfo("spo2", {"oxygen_saturation": 0.85}, active_power_w=0.012),
)


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


class Mix:
    """One row of :data:`MIXES`: the five hooks, in the order they run."""

    def __init__(self, campaign: Any):
        self.campaign = campaign

    def build(self) -> None:
        """Extra deployment, after the shared stack."""

    def schedule_workload(self) -> None:
        """Extra traffic, after the probes and before the MiLAN baseline."""

    def storm(self) -> None:
        """Schedule the storm; the clock-skew draws are already made."""
        raise NotImplementedError

    def check(self, found: Dict[str, List[str]]) -> Dict[str, Any]:
        """Judge what only this mix can; returns its scorecard sections."""
        return {}

    def close(self) -> None:
        """Tear down what :meth:`build` stood up."""


# The fault-only rows. ``compose(injector, rng, window, counts, targets)`` is
# a row's compose form: ``window(min_frac, max_frac)`` draws a (start,
# duration) inside the scenario's fault window, and ``targets`` is what the
# archetype hook the row names in ``hits`` says may be hit.


class Churn(Mix):
    hits = "fault_targets"

    def storm(self) -> None:
        campaign = self.campaign
        rng, injector = campaign.rng, campaign.injector
        # Three plain crash episodes on distinct non-monitor nodes...
        candidates = [n for n in campaign.network.node_ids()
                      if n != campaign.monitor_id]
        targets = rng.sample(candidates, 3)
        for node_id, (start, duration) in zip(
            targets, campaign.fault_times(3, (4.0, 7.0))
        ):
            campaign.crash(node_id, start, duration)
        # ...one nested double-crash (overlapping injections must compose)...
        nested = targets[0]
        (start, duration), = campaign.fault_times(1, (4.0, 6.0))
        injector.crash_and_recover(nested, start, duration)
        injector.crash_and_recover(nested, start + 1.0, duration)
        campaign.fault_counts["nested_crashes"] += 1
        campaign.last_heal_s = max(campaign.last_heal_s,
                                   start + 1.0 + duration)
        # ...one zero-downtime blip (atomic crash-then-recover)...
        blip_at = rng.uniform(campaign.spec.fault_start_s,
                              campaign.spec.heal_deadline_s - 1.0)
        injector.crash_and_recover(targets[1], blip_at, 0.0)
        campaign.fault_counts["blips"] += 1
        # ...and a loss burst on top.
        campaign.loss_burst(0.2, 0.35)

    @staticmethod
    def compose(injector, rng, window, counts, targets) -> None:
        for target in targets:
            start, duration = window(0.15, 0.3)
            injector.crash_and_recover(target, start, duration)
            counts["crashes"] += 1
        start, duration = window(0.15, 0.25)
        injector.loss_burst_at(start, duration,
                               extra_loss=rng.uniform(0.1, 0.25))
        counts["loss_bursts"] += 1


class Partition(Mix):
    hits = "partition_groups"

    def storm(self) -> None:
        campaign = self.campaign
        # Two mobile nodes so the partition interacts with live mobility:
        # the reachability filter must hold while they wander, and healing
        # must not teleport them back.
        area = (140.0, 140.0)
        for i, node_id in enumerate(("n0_1", "n1_2")):
            node = campaign.network.node(node_id)
            node.set_mobility(RandomWaypointMobility(
                area, seed=campaign.spec.seed * 31 + i,
                speed_range=(1.0, 3.0), start=node.position,
            ))
        # Right column (contains the ledger and mobile n1_2) splits off,
        # then the bottom row: both separate the monitor from the ledger.
        groups = [["n0_2", "n1_2", "n2_2"], ["n2_0", "n2_1", "n2_2"]]
        for group, (start, duration) in zip(
            groups, campaign.fault_times(2, (5.0, 8.0))
        ):
            campaign.injector.partition_at(start, group, duration)
            campaign.fault_counts["partitions"] += 1
        # One crash on a node outside every partition group, so heartbeat
        # detection of real crashes stays distinguishable from partition
        # shadowing (which shows up as spurious_suspects instead).
        target = campaign.rng.choice(["n1_0", "n1_1"])
        (start, duration), = campaign.fault_times(1, (4.0, 6.0))
        campaign.crash(target, start, duration)
        # A slow-link window stacked on the second half of the storm.
        for start, duration in campaign.fault_times(1, (4.0, 6.0)):
            campaign.injector.degrade_at(
                start, duration,
                extra_latency_s=campaign.rng.uniform(0.02, 0.05),
            )
            campaign.fault_counts["degrade_windows"] += 1

    @staticmethod
    def compose(injector, rng, window, counts, targets) -> None:
        for group in targets:
            start, duration = window(0.2, 0.35)
            injector.partition_at(start, list(group), duration)
            counts["partitions"] += 1
        start, duration = window(0.15, 0.3)
        injector.degrade_at(start, duration,
                            extra_latency_s=rng.uniform(0.01, 0.03))
        counts["degrade_windows"] += 1


class Corrupt(Mix):
    hits = None  # corruption lands on the medium, not on a node

    def storm(self) -> None:
        campaign = self.campaign
        for start, duration in campaign.fault_times(2, (4.0, 7.0)):
            self.corruptor = campaign.injector.corrupt_frames_at(
                start, duration,
                probability=campaign.rng.uniform(0.05, 0.12),
                truncate_fraction=0.5,
            )
            campaign.fault_counts["corrupt_windows"] += 1
        candidates = [n for n in campaign.network.node_ids()
                      if n != campaign.monitor_id]
        target = campaign.rng.choice(candidates)
        (start, duration), = campaign.fault_times(1, (4.0, 6.0))
        campaign.crash(target, start, duration)
        campaign.loss_burst(0.15, 0.3)

    def check(self, found: Dict[str, List[str]]) -> Dict[str, Any]:
        # Both windows share the injector's one corruptor.
        self.campaign.fault_counts.update(
            frames_corrupted=self.corruptor.corrupted,
            frames_truncated=self.corruptor.truncated,
        )
        return {}

    @staticmethod
    def compose(injector, rng, window, counts, targets) -> None:
        for _ in range(2):
            start, duration = window(0.2, 0.35)
            injector.corrupt_frames_at(
                start, duration,
                probability=rng.uniform(0.02, 0.06),
                truncate_fraction=0.5,
            )
            counts["corrupt_windows"] += 1


class Failover(Mix):
    """A replicated ledger group whose primary is crashed mid-storm, so
    coordinator election runs over the multi-hop stack."""

    def build(self) -> None:
        # The group lives on the middle column, its ports opened on the
        # routing agents so replication frames (log appends, elections,
        # group heartbeats) are multi-hop. It opens on the single-host
        # ledger's books.
        campaign = self.campaign
        self.opening = dict(campaign.ledger.balances)
        self.attempted = 0
        self.acked: Set[str] = set()
        self.group = deploy_group(
            campaign.routed_port, _REPL_MEMBERS,
            lambda: LedgerMachine(self.opening),
            port=_REPL_PORT, params=_REPL_PARAMS, group="rled",
        )
        self.client = GroupClient(
            campaign.routed_port(campaign.monitor_id, f"{_REPL_PORT}.c"),
            [Address(n, _REPL_PORT) for n in _REPL_MEMBERS],
            request_timeout_s=2.0,
            max_attempts=10,
        )
        self.ledger = ReplicatedLedger(self.client)

    def schedule_workload(self) -> None:
        # Replicated transfers: the client retries across the primary
        # crash, and the rid-keyed result cache must keep application
        # at-most-once.
        spec = self.campaign.spec
        rng = split_rng(spec.seed, "chaos-repl-transfers")
        accounts = tuple(self.opening)

        def send_repl_transfer(txid: str) -> None:
            src, dst_acct = rng.sample(accounts, 2)
            amount = rng.randint(1, 10)
            self.attempted += 1
            promise = self.ledger.transfer(txid, src, dst_acct, amount)
            promise.on_settle(
                lambda settled, txid=txid: (
                    self.acked.add(txid)
                    if settled.fulfilled and settled.result() is True
                    else None
                )
            )

        t = 3.0
        index = 0
        while t < spec.transfer_stop_s:
            self.campaign.network.sim.schedule_at(
                t, send_repl_transfer, f"rtx{index}")
            index += 1
            t += 2.0  # one for every two single-host transfers

    def storm(self) -> None:
        # One long crash of the replica group's primary — long enough for
        # detection (2.5 s of group heartbeats) plus an election round plus
        # committed traffic under the new coordinator before it returns...
        (start, duration), = self.campaign.fault_times(1, (8.0, 12.0))
        self.campaign.crash(_REPL_PRIMARY, start, duration)
        # ...and a loss burst so replication retries share a degraded net.
        self.campaign.loss_burst(0.15, 0.3)

    def check(self, found: Dict[str, List[str]]) -> Dict[str, Any]:
        """After the heal the group must pass :func:`check_group` with its
        primary crashed: exactly one primary at a term above the initial
        one, every member converged to the same applied prefix, money
        conserved on every replica, and every transfer the client saw
        acknowledged present in every replica's applied set."""
        members = self.group
        findings = check_group(
            members, self.acked,
            expected_total=sum(self.opening.values()),
            failed_over=True,
        )
        found["replication_failover"] += [
            f"replication: {detail}" for _, detail in findings
        ]
        return {"replication": {
            "members": list(_REPL_MEMBERS),
            **group_summary(members),
            "election_rounds": sum(
                members[n].election.rounds for n in _REPL_MEMBERS
            ),
            "transfers": {
                "attempted": self.attempted,
                "acked": len(self.acked),
                "applied": len(
                    members[_REPL_MEMBERS[0]].machine.applied_txids
                ),
            },
            "conserved": all(inv != "conservation" for inv, _ in findings),
        }}

    def close(self) -> None:
        close_group(self.group)
        self.client.close()


class FlashCrowd(Mix):
    """Injected *load* in place of injected faults: an open-loop RPC spike
    that the overload-protection path (admission control, paced bounded
    queues, the MiLAN overload governor) must absorb without collapse."""

    def build(self) -> None:
        campaign = self.campaign
        # The bulk stream is paced *above* the reliability layer: a message
        # the pacer sheds was never handed to it, so no retransmit state
        # exists for shed traffic. The 600 bps reservation sits just under
        # the stream's ~731 bps offered load, so the bounded queue
        # genuinely fills and drains within the run.
        self.pacer = PacedTransport(
            campaign.bulk_sender, BandwidthAllocator(1200.0, burst_s=1.0),
            "bulk", rate_bps=600.0, max_queue=16,
        )
        campaign.bulk_pipe = self.pacer
        # Priority admission at the monitor's RPC edge (privileged probes
        # keep passing while the crowd is shed) and an overload governor
        # that degrades a live MiLAN instance toward the QoS floor.
        monitor_rpc = campaign.nodes[campaign.monitor_id].rpc
        scheduler = monitor_rpc.transport.scheduler
        self.admission = AdmissionController(
            scheduler.now,
            capacity_per_s=CROWD_RATE_RPS + 4.0,
            classes=[
                PriorityClass("probe", 2.0, privileged=True),
                PriorityClass("crowd", CROWD_RATE_RPS),
            ],
        )
        monitor_rpc.admission = self.admission
        monitor_rpc.admission_class = "probe"
        self.milan = Milan(health_monitor_policy())
        for sensor in _FLASH_SENSORS:
            self.milan.add_sensor(sensor)
        self.governor = OverloadGovernor(
            scheduler, self.milan, floor=dict(_QOS_FLOOR),
            interval_s=1.0, dwell_s=2.0,
        )
        self.governor.add_signal(
            "admission", rejection_pressure(self.admission)
        )
        self.governor.add_signal("bulk_queue", queue_pressure(self.pacer))
        # The overload observations that become the scorecard's section.
        self.crowd: Dict[str, Any] = {
            "attempted": 0, "refused": 0, "refused_with_hint": 0,
            "ok": 0, "failed": 0, "latencies": [],
            "max_level": 0, "floor_violations": 0, "min_requirement": 1.0,
        }

    def storm(self) -> None:
        """The storm is load, not faults: an open-loop RPC flash crowd.

        The spike window is drawn like any other fault window (so the
        standard reconvergence check judges recovery from its end), and
        every arrival goes through the "crowd" admission class with no
        retries — the protected system's answer to excess is an immediate
        :class:`AdmissionRefused` with a pacing hint, never queued work.
        """
        campaign = self.campaign
        sim = campaign.network.sim
        (start, duration), = campaign.fault_times(1, (12.0, 16.0))
        self.spike = (start, start + duration)
        monitor = campaign.nodes[campaign.monitor_id]
        provider = Address.parse(f"{campaign.ledger_id}:svc")
        fc = self.crowd

        def crowd_call() -> None:
            fc["attempted"] += 1
            issued = sim.now()
            promise = monitor.rpc.call(
                provider, "ping", {}, timeout_s=2.0, priority="crowd",
            )

            def settle(settled) -> None:
                if settled.fulfilled and settled.result() == "pong":
                    fc["ok"] += 1
                    fc["latencies"].append(sim.now() - issued)
                elif isinstance(settled.error(), AdmissionRefused):
                    fc["refused"] += 1
                    if settled.error().retry_after_s is not None:
                        fc["refused_with_hint"] += 1
                else:
                    fc["failed"] += 1

            promise.on_settle(settle)

        t = start
        while t < start + duration:
            sim.schedule_at(t, crowd_call)
            t += CROWD_INTERVAL_S

        # Governor heartbeat: one sample per virtual second for the whole
        # run, driven by the simulator so ticks are deterministic.
        t = 1.0
        while t < campaign.spec.duration_s - 1.0:
            sim.schedule_at(t, self._governor_tick)
            t += 1.0

    def _governor_tick(self) -> None:
        self.governor.tick()
        fc = self.crowd
        fc["max_level"] = max(fc["max_level"], self.governor.level)
        for variable, required in self.milan.requirements().items():
            if required < _QOS_FLOOR.get(variable, 0.0) - 1e-9:
                fc["floor_violations"] += 1
            fc["min_requirement"] = min(fc["min_requirement"], required)

    def check(self, found: Dict[str, List[str]]) -> Dict[str, Any]:
        """Shed at the edge, bounded everywhere.

        Bounded p99 over *admitted* crowd requests (the protected system
        must stay fast for work it accepts), shedding engaged (the spike
        genuinely exceeded capacity), the paced queue bounded and drained,
        the governor degraded under load and returned to nominal, and
        requirements never crossed the QoS floor.
        """
        violations = found["overload_protected"]
        fc = self.crowd
        latencies = sorted(fc["latencies"])
        # No admitted request completed: the scorecard says null, not 0.0.
        p50, p95, p99 = (
            [nearest_rank(latencies, q) for q in (0.5, 0.95, 0.99)]
            if latencies else [None] * 3
        )
        if fc["ok"] == 0:
            violations.append("flashcrowd: no admitted crowd request completed")
        elif p99 is not None and p99 > CROWD_P99_BOUND_S:
            violations.append(
                f"flashcrowd: admitted-request p99 {p99:.3f}s exceeds "
                f"bound {CROWD_P99_BOUND_S}s"
            )
        completed = fc["ok"] + fc["failed"]
        if completed and fc["ok"] < 0.9 * completed:
            violations.append(
                f"flashcrowd: goodput collapsed ({fc['ok']}/{completed} "
                "admitted requests succeeded)"
            )
        if self.admission.rejected == 0:
            violations.append("flashcrowd: admission control never engaged")
        if fc["refused"] != fc["refused_with_hint"]:
            violations.append(
                "flashcrowd: some refusals carried no retry_after_s hint"
            )
        pacer = self.pacer
        if pacer.queued == 0:
            violations.append("flashcrowd: the paced bulk queue never filled")
        if pacer.max_queue_depth > pacer.max_queue:
            violations.append(
                f"flashcrowd: paced queue exceeded its bound "
                f"({pacer.max_queue_depth} > {pacer.max_queue})"
            )
        if pacer.queue_depth != 0:
            violations.append(
                f"flashcrowd: paced queue not drained after quiesce "
                f"({pacer.queue_depth} left)"
            )
        if self.governor.escalations == 0:
            violations.append("flashcrowd: the governor never degraded under load")
        if self.governor.level != 0:
            violations.append(
                f"flashcrowd: the governor did not restore nominal "
                f"(still at {self.governor.level_name})"
            )
        if fc["floor_violations"]:
            violations.append(
                f"flashcrowd: requirements crossed the QoS floor "
                f"{fc['floor_violations']} times"
            )
        spike_start, spike_stop = self.spike
        return {"overload": {
            "spike": {
                "start_s": round(spike_start, 6),
                "stop_s": round(spike_stop, 6),
            },
            "crowd": {
                "attempted": fc["attempted"],
                "admitted": fc["attempted"] - fc["refused"],
                "refused": fc["refused"],
                "ok": fc["ok"],
                "failed": fc["failed"],
                "p50_s": _round_opt(p50),
                "p95_s": _round_opt(p95),
                "p99_s": _round_opt(p99),
            },
            "admission": {
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
            },
            "pacer": {
                "sent": pacer.paced_sent,
                "queued": pacer.queued,
                "shed": pacer.shed,
                "max_depth": pacer.max_queue_depth,
                "final_depth": pacer.queue_depth,
            },
            "governor": {
                "escalations": self.governor.escalations,
                "deescalations": self.governor.deescalations,
                "max_level": fc["max_level"],
                "final_level": self.governor.level,
                "ticks": self.governor.ticks,
            },
            "milan": {
                "reconfigurations": self.milan.reconfigurations,
                "min_requirement": round(fc["min_requirement"], 9),
                "floor_violations": fc["floor_violations"],
            },
        }}

    def close(self) -> None:
        self.governor.stop()


#: Mix name -> row, the only place a name maps to behaviour. Table order is
#: the grid order of ``exp_chaos`` and of the CI artifact. ``corrupt`` and
#: ``partition`` cover the two scenarios the acceptance criteria single out
#: (corrupt-frame and mobile-partition).
MIXES: Dict[str, type] = {
    "churn": Churn,
    "partition": Partition,
    "corrupt": Corrupt,
    "failover": Failover,
    "flashcrowd": FlashCrowd,
}

#: The rows with a compose form. ``failover`` and ``flashcrowd`` need a
#: replica group / admission edge the campaign deployment gives them, so
#: they are not composable storms.
COMPOSABLE_MIXES = tuple(
    name for name, row in MIXES.items() if hasattr(row, "compose")
)


def compose(
    mix: str,
    archetype: Any,
    seed: int,
    start_s: float,
    end_s: float,
    label: str,
) -> Tuple[Dict[str, int], float]:
    """Schedule row ``mix``'s compose form on ``archetype``'s deployment.

    All windows land inside ``[start_s, end_s]``; every fault heals by
    ``end_s``. What may be hit is the archetype's to say
    (:meth:`~repro.workloads.registry.Archetype.fault_targets`,
    :meth:`~repro.workloads.registry.Archetype.partition_groups`); a row
    with nothing to hit raises instead of reporting a storm that did not
    happen. Draws come from a private ``(seed, label, mix)`` stream, so
    composing faults never perturbs the deployment's own RNG streams.

    Returns ``(fault_counts, last_heal_s)``.
    """
    if mix not in COMPOSABLE_MIXES:
        raise ConfigurationError(
            f"mix {mix!r} is not composable; available: {COMPOSABLE_MIXES}"
        )
    if end_s <= start_s:
        raise ConfigurationError(
            f"fault window must be non-empty, got [{start_s}, {end_s}]"
        )
    injector = FailureInjector(archetype.network, seed=seed)
    rng = split_rng(seed, f"chaos-mix:{label}:{mix}")
    counts: Dict[str, int] = {
        "crashes": 0, "partitions": 0, "loss_bursts": 0,
        "degrade_windows": 0, "corrupt_windows": 0,
    }
    last_heal = start_s
    span = end_s - start_s

    def window(min_frac: float, max_frac: float) -> Tuple[float, float]:
        nonlocal last_heal
        duration = span * rng.uniform(min_frac, max_frac)
        start = rng.uniform(start_s, end_s - duration)
        last_heal = max(last_heal, start + duration)
        return start, duration

    row = MIXES[mix]
    targets: List[Any] = []
    if row.hits is not None:
        targets = list(getattr(archetype, row.hits)() or [])[:2]
        if not targets:  # a vacuous storm is worse than an error
            raise ConfigurationError(
                f"mix {mix!r} has nothing to hit: archetype "
                f"{archetype.name!r} declares no {row.hits}()"
            )
    row.compose(injector, rng, window, counts, targets)
    return counts, last_heal
