"""Chaos campaigns: deterministic fault storms against the full stack.

The failure story of the middleware (Sections 3.4 and 3.8) is only as good
as its worst fault path. A *campaign* stands up a complete deployment —
multi-hop routing, reliable transport, distributed discovery, heartbeat
failure detection, an idempotent transactional ledger, and a MiLAN sensor
selection — then drives a seed-derived storm of faults through
:class:`repro.netsim.failures.FailureInjector`: crash/recover churn (with
nested and zero-downtime cases), partitions as reachability filters (with
mobile nodes inside the partitioned group), loss bursts and slow-link
windows, frame corruption/truncation at the medium, and clock-skewed
per-node schedulers.

After the storm heals, the campaign checks **recovery invariants**:

* ``no_timer_leaks`` — once traffic quiesces, every reliable-transport
  retransmit timer has resolved (acked or given up); no pending entry
  survives, and receive-side dedup state stayed within its bounded window.
* ``exactly_once_delivery`` — the reliable bulk stream delivered no
  payload twice despite retransmissions, duplication, and corruption.
* ``reconverged`` — after the last heal, a discovery lookup and an RPC
  round-trip both succeed within ``reconvergence_bound_s``.
* ``transactions_atomic`` — the ledger conserved money across partitions
  and crashes, and every transfer acknowledged to the client was applied
  (at-least-once with idempotent application = effectively exactly once).
* ``heartbeat_exact`` — every injected crash episode long enough to detect
  was reported by the monitor's failure detector exactly once.
* ``overload_protected`` (flashcrowd mix) — under a flash crowd of
  open-loop RPCs, the admission controller shed the excess at the edge,
  the paced bulk queue stayed bounded and drained, admitted-request p99
  stayed under its bound (no collapse), and the overload governor degraded
  MiLAN's requirements toward — never through — the QoS floor and restored
  them after the spike.

Everything is a pure function of ``(mix, seed)``: the scorecard is
byte-identical across runs and across processes (the PR-3 sweep runner
fans campaigns over seeds). No wall-clock values appear in the scorecard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.milan import Milan
from repro.core.overload import OverloadGovernor, queue_pressure, rejection_pressure
from repro.core.policy import health_monitor_policy
from repro.core.sensors import SensorInfo, sensor_from_description
from repro.discovery.matching import Query
from repro.errors import AdmissionRefused, ConfigurationError
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.mobility import RandomWaypointMobility
from repro.obs.export import canonical_json
from repro.obs.metrics import get_registry, nearest_rank
from repro.obs.tracing import TRACER
from repro.qos.admission import AdmissionController, PriorityClass
from repro.qos.spec import SupplierQoS
from repro.recovery.heartbeat import HeartbeatDetector
from repro.scheduling.bandwidth import BandwidthAllocator
from repro.transport.pacing import PacedTransport
from repro.replication.check import check_group, close_group, group_summary
from repro.replication.client import GroupClient
from repro.replication.replica import ReplicationParams, deploy_group
from repro.replication.services import LedgerMachine, ReplicatedLedger
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.reliable import ReliabilityParams, ReliableTransport
from repro.transport.simnet import SimFabric
from repro.middleware import MiddlewareNode
from repro.util.rng import split_rng

#: The campaign fault mixes. Each is a different storm shape over the same
#: deployment; ``corrupt`` and ``partition`` cover the two scenarios the
#: acceptance criteria single out (corrupt-frame and mobile-partition),
#: ``failover`` adds a replicated ledger group whose primary is crashed
#: mid-storm, so coordinator election runs over the multi-hop stack, and
#: ``flashcrowd`` replaces injected faults with injected *load* — an
#: open-loop RPC spike that the overload-protection path (admission
#: control, paced bounded queues, the MiLAN overload governor) must absorb
#: without collapse.
FAULT_MIXES = ("churn", "partition", "corrupt", "failover", "flashcrowd")

_HB_PORT = "hb"
_BULK_PORT = "bulk"
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

#: Ledger accounts and their initial balance (conservation invariant).
_ACCOUNTS = ("acct0", "acct1", "acct2", "acct3")
_INITIAL_BALANCE = 100

#: The flashcrowd mix's QoS floor: the per-variable reliability the
#: overload governor must never degrade below, whatever the load.
_QOS_FLOOR = {"blood_pressure": 0.45, "heart_rate": 0.4,
              "oxygen_saturation": 0.4}

#: The live MiLAN fleet the flashcrowd governor reconfigures (same
#: reliabilities as the discovered suppliers below, built directly so the
#: governor's subject does not depend on discovery timing).
_FLASH_SENSORS = (
    SensorInfo("bp-cuff", {"blood_pressure": 0.95}, active_power_w=0.02),
    SensorInfo("ecg", {"heart_rate": 0.95, "blood_pressure": 0.3},
               active_power_w=0.03),
    SensorInfo("ppg", {"heart_rate": 0.8, "oxygen_saturation": 0.9},
               active_power_w=0.01),
    SensorInfo("spo2", {"oxygen_saturation": 0.85}, active_power_w=0.012),
)

#: The four MiLAN sensor suppliers (from the Section 3.1 health scenario).
_SENSOR_SPECS = [
    ("bp-cuff", {"var:blood_pressure": "0.95", "power_w": "0.02",
                 "battery_capacity_j": "10"}),
    ("ecg", {"var:heart_rate": "0.95", "var:blood_pressure": "0.3",
             "power_w": "0.03", "battery_capacity_j": "12"}),
    ("ppg", {"var:heart_rate": "0.8", "var:oxygen_saturation": "0.9",
             "power_w": "0.01", "battery_capacity_j": "8"}),
    ("spo2", {"var:oxygen_saturation": "0.85", "power_w": "0.012",
              "battery_capacity_j": "9"}),
]


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign configuration; everything derives from (mix, seed).

    The default timeline: workload and faults live in the first ~45 virtual
    seconds, every fault heals by ``heal_deadline_s``, and the remainder is
    quiesce time long enough for the slowest retransmission chain
    (``0.2 * 2^5`` backoff, under maximum clock skew) to resolve, so the
    timer-leak invariant is meaningful rather than vacuous.
    """

    mix: str
    seed: int
    duration_s: float = 75.0
    fault_start_s: float = 8.0
    heal_deadline_s: float = 45.0
    bulk_messages: int = 120
    bulk_interval_s: float = 0.35
    transfer_interval_s: float = 1.0
    transfer_stop_s: float = 44.0
    probe_interval_s: float = 1.0
    hb_interval_s: float = 1.0
    hb_timeout_multiplier: float = 2.5
    reconvergence_bound_s: float = 12.0
    recv_window: int = 256
    # Flashcrowd mix: one crowd arrival every crowd_interval_s during the
    # spike (40 req/s by default) against a 10 req/s crowd class — the
    # controller must shed roughly three of every four arrivals.
    crowd_interval_s: float = 0.025
    crowd_rate_rps: float = 10.0
    crowd_p99_bound_s: float = 1.0

    def __post_init__(self) -> None:
        if self.mix not in FAULT_MIXES:
            raise ConfigurationError(
                f"unknown fault mix {self.mix!r}; available: {FAULT_MIXES}"
            )
        if self.duration_s <= self.heal_deadline_s:
            raise ConfigurationError(
                "campaign must outlive its heal deadline "
                f"({self.duration_s} <= {self.heal_deadline_s})"
            )


@dataclass
class _Episode:
    """One crash outage the heartbeat monitor is expected to report."""

    node_id: str
    crash_at: float
    recover_at: float


@dataclass
class _ProbeRecord:
    issued_at: float
    completed_at: Optional[float] = None
    ok: bool = False


@dataclass
class _CampaignState:
    """Mutable observations accumulated while the simulation runs."""

    bulk_sent: int = 0
    bulk_received: List[int] = field(default_factory=list)
    transfers_attempted: int = 0
    transfers_acked: Set[str] = field(default_factory=set)
    repl_transfers_attempted: int = 0
    repl_transfers_acked: Set[str] = field(default_factory=set)
    suspect_events: List[Tuple[float, str]] = field(default_factory=list)
    alive_events: List[Tuple[float, str]] = field(default_factory=list)
    discovery_probes: List[_ProbeRecord] = field(default_factory=list)
    rpc_probes: List[_ProbeRecord] = field(default_factory=list)
    milan_before: Optional[bool] = None


class _Ledger:
    """An idempotent transfer service: the atomicity invariant's subject.

    ``transfer`` moves an amount between two accounts in one step and
    remembers applied transaction ids, so client-side retries (lost request
    *or* lost reply) cannot double-apply. Conservation of the total balance
    plus ``acked ⊆ applied`` is exactly "transactions stay atomic across
    partitions" at this scale.
    """

    def __init__(self) -> None:
        self.balances: Dict[str, int] = {a: _INITIAL_BALANCE for a in _ACCOUNTS}
        self.applied: Set[str] = set()

    def transfer(self, txid: str, src: str, dst: str, amount: int) -> bool:
        if txid in self.applied:
            return True
        if src not in self.balances or dst not in self.balances:
            raise ConfigurationError(f"unknown account {src!r}/{dst!r}")
        self.applied.add(txid)
        self.balances[src] -= amount
        self.balances[dst] += amount
        return True

    def ping(self) -> str:
        return "pong"

    def total(self) -> int:
        return sum(self.balances.values())


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


class ChaosCampaign:
    """Builds the deployment, schedules the storm, runs it, and judges it."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec
        self.rng = split_rng(spec.seed, f"chaos:{spec.mix}")
        self.state = _CampaignState()
        self.episodes: List[_Episode] = []
        self.fault_counts: Dict[str, int] = {
            "crashes": 0, "blips": 0, "nested_crashes": 0, "partitions": 0,
            "loss_bursts": 0, "degrade_windows": 0, "corrupt_windows": 0,
            "skewed_nodes": 0,
        }
        self.last_heal_s = spec.fault_start_s
        self._corruptor = None
        # Flashcrowd-mix machinery (None elsewhere); _fc accumulates the
        # overload observations that become the scorecard's section.
        self.admission: Optional[AdmissionController] = None
        self.bulk_pacer: Optional[PacedTransport] = None
        self.milan_live: Optional[Milan] = None
        self.governor: Optional[OverloadGovernor] = None
        self.spike_window: Optional[Tuple[float, float]] = None
        self._fc: Dict[str, Any] = {
            "attempted": 0, "refused": 0, "refused_with_hint": 0,
            "ok": 0, "failed": 0, "latencies": [],
            "max_level": 0, "floor_violations": 0, "min_requirement": 1.0,
        }
        self._build_stack()
        self._schedule_workload()
        self._schedule_faults()

    # ------------------------------------------------------------ deployment

    def _build_stack(self) -> None:
        spec = self.spec
        # 3x3 grid, 60 m spacing, 100 m radio range: connected but genuinely
        # multi-hop corner to corner, so routing is load-bearing.
        self.network = topology.grid(3, 3, spacing=60.0, seed=spec.seed)
        self.fabric = SimFabric(self.network)
        self.injector = FailureInjector(self.network, seed=spec.seed)

        ids = self.network.node_ids()
        self.monitor_id = "n0_0"     # failure detector + probe client
        self.ledger_id = "n2_2"      # transactional service supplier
        self.bulk_src_id = "n0_2"    # reliable stream endpoints (far corners)
        self.bulk_dst_id = "n2_0"

        self.nodes: Dict[str, MiddlewareNode] = {
            node_id: MiddlewareNode(
                self.fabric, node_id,
                router_factory=lambda _nid: FloodingRouter(),
                collect_window_s=1.0, discovery_ttl=6,
            )
            for node_id in ids
        }

        # Fresh network answers only: the probe that measures re-convergence
        # must not be satisfied from the consumer-side advert cache.
        self.nodes[self.monitor_id].discovery.use_cache = False

        # The ledger service (atomicity invariant) on the far corner.
        self.ledger = _Ledger()
        self.nodes[self.ledger_id].provide(
            "ledger", "ledger",
            {"transfer": self.ledger.transfer, "ping": self.ledger.ping},
        )

        # MiLAN sensor suppliers spread over interior nodes.
        sensor_hosts = ["n0_1", "n1_0", "n1_2", "n2_1"]
        for host, (sensor_id, properties) in zip(sensor_hosts, _SENSOR_SPECS):
            self.nodes[host].provide(
                sensor_id, "vital-sensor",
                {"read": lambda sid=sensor_id: sid},
                qos=SupplierQoS(battery_powered=True, battery_fraction=1.0,
                                properties=properties),
            )

        # Reliable bulk stream across the diagonal, over the routing layer.
        params = ReliabilityParams(recv_window=spec.recv_window)
        src_agent = self.nodes[self.bulk_src_id].routing_agent
        dst_agent = self.nodes[self.bulk_dst_id].routing_agent
        assert src_agent is not None and dst_agent is not None
        self.bulk_sender = ReliableTransport(
            src_agent.open_port(_BULK_PORT), params=params
        )
        self.bulk_receiver = ReliableTransport(
            dst_agent.open_port(_BULK_PORT), params=params
        )
        self.bulk_receiver.set_receiver(self._on_bulk)
        # The flashcrowd mix paces the bulk stream *above* the reliability
        # layer: a message the pacer sheds was never handed to it, so no
        # retransmit state exists for shed traffic. The 600 bps reservation
        # sits just under the stream's ~731 bps offered load, so the
        # bounded queue genuinely fills and drains within the run.
        self.bulk_pipe: Any = self.bulk_sender
        if spec.mix == "flashcrowd":
            self.bulk_allocator = BandwidthAllocator(1200.0, burst_s=1.0)
            self.bulk_pacer = PacedTransport(
                self.bulk_sender, self.bulk_allocator, "bulk",
                rate_bps=600.0, max_queue=16,
            )
            self.bulk_pipe = self.bulk_pacer

        # Heartbeats: everyone beats toward the monitor; the monitor watches.
        self.detectors: Dict[str, HeartbeatDetector] = {}
        monitor_hb = Address(self.monitor_id, _HB_PORT)
        for node_id in ids:
            agent = self.nodes[node_id].routing_agent
            assert agent is not None
            detector = HeartbeatDetector(
                agent.open_port(_HB_PORT),
                interval_s=spec.hb_interval_s,
                timeout_multiplier=spec.hb_timeout_multiplier,
            )
            if node_id == self.monitor_id:
                for other in ids:
                    if other != node_id:
                        detector.watch(other)
                detector.events.on(
                    "suspect",
                    lambda nid: self.state.suspect_events.append(
                        (self.network.sim.now(), nid)
                    ),
                )
                detector.events.on(
                    "alive",
                    lambda nid: self.state.alive_events.append(
                        (self.network.sim.now(), nid)
                    ),
                )
            else:
                detector.send_to(monitor_hb)
            self.detectors[node_id] = detector

        # The failover mix adds a replicated ledger group over the middle
        # column, its ports opened on the routing agents so replication
        # frames (log appends, elections, group heartbeats) are multi-hop.
        self.repl_group = None
        self.repl_client = None
        if spec.mix == "failover":
            def routed(node_id: str, port: str):
                agent = self.nodes[node_id].routing_agent
                assert agent is not None
                return agent.open_port(port)

            self.repl_group = deploy_group(
                routed, _REPL_MEMBERS,
                lambda: LedgerMachine(
                    {a: _INITIAL_BALANCE for a in _ACCOUNTS}
                ),
                port=_REPL_PORT, params=_REPL_PARAMS, group="rled",
            )
            self.repl_client = GroupClient(
                routed(self.monitor_id, f"{_REPL_PORT}.c"),
                [Address(n, _REPL_PORT) for n in _REPL_MEMBERS],
                request_timeout_s=2.0,
                max_attempts=10,
            )
            self.repl_ledger = ReplicatedLedger(self.repl_client)

        # The flashcrowd mix arms the overload-protection path: priority
        # admission at the monitor's RPC edge (privileged probes keep
        # passing while the crowd is shed) and an overload governor that
        # degrades a live MiLAN instance toward the QoS floor under load.
        if spec.mix == "flashcrowd":
            monitor_rpc = self.nodes[self.monitor_id].rpc
            scheduler = monitor_rpc.transport.scheduler
            self.admission = AdmissionController(
                scheduler.now,
                capacity_per_s=spec.crowd_rate_rps + 4.0,
                classes=[
                    PriorityClass("probe", 2.0, privileged=True),
                    PriorityClass("crowd", spec.crowd_rate_rps),
                ],
            )
            monitor_rpc.admission = self.admission
            monitor_rpc.admission_class = "probe"
            self.milan_live = Milan(health_monitor_policy())
            for sensor in _FLASH_SENSORS:
                self.milan_live.add_sensor(sensor)
            self.governor = OverloadGovernor(
                scheduler, self.milan_live, floor=dict(_QOS_FLOOR),
                interval_s=1.0, dwell_s=2.0,
            )
            self.governor.add_signal(
                "admission", rejection_pressure(self.admission)
            )
            self.governor.add_signal("bulk_queue", queue_pressure(self.bulk_pacer))

    # -------------------------------------------------------------- workload

    def _on_bulk(self, _source: Address, payload: bytes) -> None:
        self.state.bulk_received.append(int.from_bytes(payload[:4], "big"))

    def _schedule_workload(self) -> None:
        spec = self.spec
        sim = self.network.sim
        dst = Address(self.bulk_dst_id, _BULK_PORT)

        def send_bulk(index: int) -> None:
            self.state.bulk_sent += 1
            self.bulk_pipe.send(dst, index.to_bytes(4, "big") + b"x" * 28)

        for i in range(spec.bulk_messages):
            sim.schedule_at(2.0 + i * spec.bulk_interval_s, send_bulk, i)

        # Idempotent ledger transfers with client-side retries.
        monitor = self.nodes[self.monitor_id]
        provider = f"{self.ledger_id}:svc"
        transfer_rng = split_rng(spec.seed, f"chaos-transfers:{spec.mix}")

        def send_transfer(txid: str) -> None:
            src, dst_acct = transfer_rng.sample(_ACCOUNTS, 2)
            amount = transfer_rng.randint(1, 10)
            self.state.transfers_attempted += 1
            promise = monitor.rpc.call(
                Address.parse(provider), "transfer",
                {"txid": txid, "src": src, "dst": dst_acct, "amount": amount},
                timeout_s=1.5, retries=3,
            )
            promise.on_settle(
                lambda settled, txid=txid: (
                    self.state.transfers_acked.add(txid)
                    if settled.fulfilled else None
                )
            )

        t = 3.0
        index = 0
        while t < spec.transfer_stop_s:
            sim.schedule_at(t, send_transfer, f"tx{index}")
            index += 1
            t += spec.transfer_interval_s

        # Re-convergence probes: discovery lookups and RPC round-trips.
        def probe_discovery() -> None:
            record = _ProbeRecord(issued_at=sim.now())
            self.state.discovery_probes.append(record)
            promise = monitor.find(Query("ledger"))

            def settle(settled) -> None:
                record.completed_at = sim.now()
                record.ok = settled.fulfilled and bool(settled.result())

            promise.on_settle(settle)

        def probe_rpc() -> None:
            record = _ProbeRecord(issued_at=sim.now())
            self.state.rpc_probes.append(record)
            promise = monitor.call(provider, "ping", timeout_s=2.0)

            def settle(settled) -> None:
                record.completed_at = sim.now()
                record.ok = settled.fulfilled and settled.result() == "pong"

            promise.on_settle(settle)

        t = 1.0
        while t < spec.duration_s - 4.0:
            sim.schedule_at(t, probe_discovery)
            sim.schedule_at(t + 0.5, probe_rpc)
            t += spec.probe_interval_s

        # Replicated transfers against the failover mix's replica group:
        # the client retries across the primary crash, and the rid-keyed
        # result cache must keep application at-most-once.
        if self.repl_group is not None:
            repl_rng = split_rng(spec.seed, "chaos-repl-transfers")

            def send_repl_transfer(txid: str) -> None:
                src, dst_acct = repl_rng.sample(_ACCOUNTS, 2)
                amount = repl_rng.randint(1, 10)
                self.state.repl_transfers_attempted += 1
                promise = self.repl_ledger.transfer(txid, src, dst_acct,
                                                    amount)
                promise.on_settle(
                    lambda settled, txid=txid: (
                        self.state.repl_transfers_acked.add(txid)
                        if settled.fulfilled and settled.result() is True
                        else None
                    )
                )

            t = 3.0
            index = 0
            while t < spec.transfer_stop_s:
                sim.schedule_at(t, send_repl_transfer, f"rtx{index}")
                index += 1
                t += spec.transfer_interval_s * 2.0

        # MiLAN baseline selection early in the run.
        def milan_baseline() -> None:
            promise = monitor.find(Query("vital-sensor", max_results=20))
            promise.on_settle(
                lambda settled: self._judge_milan(settled, before=True)
            )

        sim.schedule_at(5.0, milan_baseline)

    def _judge_milan(self, settled, before: bool) -> Optional[int]:
        if settled.rejected:
            satisfied, count = False, 0
        else:
            descriptions = settled.result()
            milan = Milan(health_monitor_policy())
            for description in descriptions:
                milan.add_sensor(sensor_from_description(description))
            satisfied, count = milan.application_satisfied(), len(descriptions)
        if before:
            self.state.milan_before = satisfied
            return None
        self._milan_after = (satisfied, count)
        return count

    # ---------------------------------------------------------------- faults

    def _fault_times(self, count: int, duration_range: Tuple[float, float]):
        """Draw ``count`` (start, duration) windows inside the fault phase."""
        spec = self.spec
        windows = []
        for _ in range(count):
            duration = self.rng.uniform(*duration_range)
            start = self.rng.uniform(
                spec.fault_start_s, spec.heal_deadline_s - duration
            )
            windows.append((start, duration))
            self.last_heal_s = max(self.last_heal_s, start + duration)
        return windows

    def _crash(self, node_id: str, start: float, downtime: float) -> None:
        self.injector.crash_and_recover(node_id, start, downtime)
        self.fault_counts["crashes"] += 1
        self.episodes.append(_Episode(node_id, start, start + downtime))
        self.last_heal_s = max(self.last_heal_s, start + downtime)

    def _apply_skew(self, exclude: Tuple[str, ...]) -> None:
        for node_id in self.network.node_ids():
            if node_id in exclude:
                continue
            factor = 1.0 + self.rng.uniform(-0.08, 0.08)
            self.fabric.set_clock_skew(node_id, factor)
            self.fault_counts["skewed_nodes"] += 1

    def _schedule_faults(self) -> None:
        spec = self.spec
        # Clock skew everywhere except the monitor (its detector timing
        # anchors the heartbeat invariant) in every mix: drifting timers are
        # ambient reality, not an exotic fault.
        self._apply_skew(exclude=(self.monitor_id,))

        if spec.mix == "churn":
            self._schedule_churn()
        elif spec.mix == "partition":
            self._schedule_partition()
        elif spec.mix == "failover":
            self._schedule_failover()
        elif spec.mix == "flashcrowd":
            self._schedule_flashcrowd()
        else:
            self._schedule_corrupt()

    def _schedule_churn(self) -> None:
        # Three plain crash episodes on distinct non-monitor nodes...
        candidates = [n for n in self.network.node_ids() if n != self.monitor_id]
        targets = self.rng.sample(candidates, 3)
        for node_id, (start, duration) in zip(
            targets, self._fault_times(3, (4.0, 7.0))
        ):
            self._crash(node_id, start, duration)
        # ...one nested double-crash (overlapping injections must compose)...
        nested = targets[0]
        (start, duration), = self._fault_times(1, (4.0, 6.0))
        self.injector.crash_and_recover(nested, start, duration)
        self.injector.crash_and_recover(nested, start + 1.0, duration)
        self.fault_counts["nested_crashes"] += 1
        end = start + 1.0 + duration
        self.episodes.append(_Episode(nested, start, end))
        self.last_heal_s = max(self.last_heal_s, end)
        # ...one zero-downtime blip (atomic crash-then-recover)...
        blip_at = self.rng.uniform(self.spec.fault_start_s,
                                   self.spec.heal_deadline_s - 1.0)
        self.injector.crash_and_recover(targets[1], blip_at, 0.0)
        self.fault_counts["blips"] += 1
        # ...and a loss burst on top.
        for start, duration in self._fault_times(1, (3.0, 5.0)):
            self.injector.loss_burst_at(start, duration,
                                        extra_loss=self.rng.uniform(0.2, 0.35))
            self.fault_counts["loss_bursts"] += 1

    def _schedule_partition(self) -> None:
        # Two mobile nodes so the partition interacts with live mobility:
        # the reachability filter must hold while they wander, and healing
        # must not teleport them back.
        area = (140.0, 140.0)
        for i, node_id in enumerate(("n0_1", "n1_2")):
            node = self.network.node(node_id)
            node.set_mobility(RandomWaypointMobility(
                area, seed=self.spec.seed * 31 + i,
                speed_range=(1.0, 3.0), start=node.position,
            ))
        # Right column (contains the ledger and mobile n1_2) splits off,
        # then the bottom row: both separate the monitor from the ledger.
        groups = [["n0_2", "n1_2", "n2_2"], ["n2_0", "n2_1", "n2_2"]]
        for group, (start, duration) in zip(
            groups, self._fault_times(2, (5.0, 8.0))
        ):
            self.injector.partition_at(start, group, duration)
            self.fault_counts["partitions"] += 1
        # One crash on a node outside every partition group, so heartbeat
        # detection of real crashes stays distinguishable from partition
        # shadowing (which shows up as spurious_suspects instead).
        target = self.rng.choice(["n1_0", "n1_1"])
        (start, duration), = self._fault_times(1, (4.0, 6.0))
        self._crash(target, start, duration)
        # A slow-link window stacked on the second half of the storm.
        for start, duration in self._fault_times(1, (4.0, 6.0)):
            self.injector.degrade_at(start, duration,
                                     extra_latency_s=self.rng.uniform(0.02, 0.05))
            self.fault_counts["degrade_windows"] += 1

    def _schedule_failover(self) -> None:
        # One long crash of the replica group's primary — long enough for
        # detection (2.5 s of group heartbeats) plus an election round plus
        # committed traffic under the new coordinator before it returns...
        (start, duration), = self._fault_times(1, (8.0, 12.0))
        self._crash(_REPL_PRIMARY, start, duration)
        # ...and a loss burst so replication retries share a degraded net.
        for start, duration in self._fault_times(1, (3.0, 5.0)):
            self.injector.loss_burst_at(start, duration,
                                        extra_loss=self.rng.uniform(0.15, 0.3))
            self.fault_counts["loss_bursts"] += 1

    def _schedule_flashcrowd(self) -> None:
        """The storm is load, not faults: an open-loop RPC flash crowd.

        The spike window is drawn like any other fault window (so the
        standard reconvergence check judges recovery from its end), and
        every arrival goes through the "crowd" admission class with no
        retries — the protected system's answer to excess is an immediate
        :class:`AdmissionRefused` with a pacing hint, never queued work.
        """
        spec = self.spec
        sim = self.network.sim
        (start, duration), = self._fault_times(1, (12.0, 16.0))
        self.spike_window = (start, start + duration)
        monitor = self.nodes[self.monitor_id]
        provider = f"{self.ledger_id}:svc"
        fc = self._fc

        def crowd_call() -> None:
            fc["attempted"] += 1
            issued = sim.now()
            promise = monitor.rpc.call(
                Address.parse(provider), "ping", {},
                timeout_s=2.0, priority="crowd",
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
            t += spec.crowd_interval_s

        # Governor heartbeat: one sample per virtual second for the whole
        # run, driven by the simulator so ticks are deterministic.
        t = 1.0
        while t < spec.duration_s - 1.0:
            sim.schedule_at(t, self._governor_tick)
            t += 1.0

    def _governor_tick(self) -> None:
        assert self.governor is not None and self.milan_live is not None
        self.governor.tick()
        fc = self._fc
        fc["max_level"] = max(fc["max_level"], self.governor.level)
        for variable, required in self.milan_live.requirements().items():
            if required < _QOS_FLOOR.get(variable, 0.0) - 1e-9:
                fc["floor_violations"] += 1
            fc["min_requirement"] = min(fc["min_requirement"], required)

    def _schedule_corrupt(self) -> None:
        for start, duration in self._fault_times(2, (4.0, 7.0)):
            self._corruptor = self.injector.corrupt_frames_at(
                start, duration,
                probability=self.rng.uniform(0.05, 0.12),
                truncate_fraction=0.5,
            )
            self.fault_counts["corrupt_windows"] += 1
        candidates = [n for n in self.network.node_ids() if n != self.monitor_id]
        target = self.rng.choice(candidates)
        (start, duration), = self._fault_times(1, (4.0, 6.0))
        self._crash(target, start, duration)
        for start, duration in self._fault_times(1, (3.0, 5.0)):
            self.injector.loss_burst_at(start, duration,
                                        extra_loss=self.rng.uniform(0.15, 0.3))
            self.fault_counts["loss_bursts"] += 1

    # ------------------------------------------------------------ invariants

    def _merged_episodes(self) -> List[_Episode]:
        """Merge overlapping crash windows per node (nested injections)."""
        merged: List[_Episode] = []
        by_node: Dict[str, List[_Episode]] = {}
        for episode in self.episodes:
            by_node.setdefault(episode.node_id, []).append(episode)
        for node_id in sorted(by_node):
            spans = sorted(by_node[node_id], key=lambda e: e.crash_at)
            current = spans[0]
            for nxt in spans[1:]:
                if nxt.crash_at <= current.recover_at:
                    current = _Episode(node_id, current.crash_at,
                                       max(current.recover_at, nxt.recover_at))
                else:
                    merged.append(current)
                    current = nxt
            merged.append(current)
        return merged

    def _suspected_at(self, node_id: str, when: float) -> bool:
        """Was the monitor already suspecting ``node_id`` at time ``when``?"""
        last_suspect = max(
            (t for t, nid in self.state.suspect_events
             if nid == node_id and t < when), default=None,
        )
        if last_suspect is None:
            return False
        last_alive = max(
            (t for t, nid in self.state.alive_events
             if nid == node_id and t < when), default=-1.0,
        )
        return last_alive < last_suspect

    def _check_heartbeat(self, violations: List[str]) -> Dict[str, Any]:
        """Every detectable crash reported exactly once.

        "Exactly once" is judged against eventually-perfect-detector
        semantics: the monitor reports an outage with one ``suspect`` event
        and cannot report it again unless an intervening heartbeat cleared
        the suspicion (an ``alive`` event re-arms it). So a crash that lands
        while the node is still suspected from a previous outage counts as
        detected by carry-over, and a second ``suspect`` is only legitimate
        if an ``alive`` fell in between.
        """
        detect_slack = self.spec.hb_interval_s * self.spec.hb_timeout_multiplier + 2.0
        episodes = self._merged_episodes()
        detected = 0
        duplicates = 0
        missed = 0
        matched_suspects: Set[int] = set()
        for episode in episodes:
            window_end = episode.recover_at + detect_slack
            hits = [
                i for i, (t, nid) in enumerate(self.state.suspect_events)
                if nid == episode.node_id and episode.crash_at <= t <= window_end
            ]
            matched_suspects.update(hits)
            rearms = sum(
                1 for t, nid in self.state.alive_events
                if nid == episode.node_id and episode.crash_at <= t <= window_end
            )
            if len(hits) == 0:
                if self._suspected_at(episode.node_id, episode.crash_at):
                    detected += 1  # carried over from a prior, uncleared outage
                else:
                    missed += 1
                    violations.append(
                        f"heartbeat missed crash of {episode.node_id} "
                        f"at t={episode.crash_at:.2f}"
                    )
            elif len(hits) <= 1 + rearms:
                detected += 1
            else:
                duplicates += 1
                violations.append(
                    f"heartbeat reported crash of {episode.node_id} "
                    f"{len(hits)} times ({rearms} re-arms)"
                )
        spurious = len(self.state.suspect_events) - len(matched_suspects)
        return {
            "episodes": len(episodes),
            "detected": detected,
            "duplicate_detections": duplicates,
            "missed": missed,
            "spurious_suspects": spurious,
        }

    def _check_replication(self, violations: List[str]) -> Optional[Dict[str, Any]]:
        """Failover-mix invariants on the replicated ledger group.

        After the heal the group must pass :func:`check_group` with its
        primary crashed: exactly one primary at a term above the initial
        one, every member converged to the same applied prefix, money
        conserved on every replica, and every transfer the client saw
        acknowledged present in every replica's applied set.
        """
        if self.repl_group is None:
            return None
        members = self.repl_group
        findings = check_group(
            members, self.state.repl_transfers_acked,
            expected_total=_INITIAL_BALANCE * len(_ACCOUNTS),
            failed_over=True,
        )
        violations += [f"replication: {detail}" for _, detail in findings]
        return {
            "members": list(_REPL_MEMBERS),
            **group_summary(members),
            "election_rounds": sum(
                members[n].election.rounds for n in _REPL_MEMBERS
            ),
            "transfers": {
                "attempted": self.state.repl_transfers_attempted,
                "acked": len(self.state.repl_transfers_acked),
                "applied": len(
                    members[_REPL_MEMBERS[0]].machine.applied_txids
                ),
            },
            "conserved": all(inv != "conservation" for inv, _ in findings),
        }

    def _check_flashcrowd(self, violations: List[str]) -> Optional[Dict[str, Any]]:
        """Flashcrowd-mix invariants: shed at the edge, bounded everywhere.

        Bounded p99 over *admitted* crowd requests (the protected system
        must stay fast for work it accepts), shedding engaged (the spike
        genuinely exceeded capacity), the paced queue bounded and drained,
        the governor degraded under load and returned to nominal, and
        requirements never crossed the QoS floor.
        """
        if self.spec.mix != "flashcrowd":
            return None
        assert (self.admission is not None and self.bulk_pacer is not None
                and self.governor is not None and self.milan_live is not None)
        fc = self._fc
        latencies = sorted(fc["latencies"])
        # No admitted request completed: the scorecard says null, not 0.0.
        p50, p95, p99 = (
            [nearest_rank(latencies, q) for q in (0.5, 0.95, 0.99)]
            if latencies else [None] * 3
        )
        if fc["ok"] == 0:
            violations.append("flashcrowd: no admitted crowd request completed")
        elif p99 is not None and p99 > self.spec.crowd_p99_bound_s:
            violations.append(
                f"flashcrowd: admitted-request p99 {p99:.3f}s exceeds "
                f"bound {self.spec.crowd_p99_bound_s}s"
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
        pacer = self.bulk_pacer
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
        spike_start, spike_stop = self.spike_window or (0.0, 0.0)
        return {
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
                "reconfigurations": self.milan_live.reconfigurations,
                "min_requirement": round(fc["min_requirement"], 9),
                "floor_violations": fc["floor_violations"],
            },
        }

    def _first_ok_after(self, probes: List[_ProbeRecord],
                        after: float) -> Optional[float]:
        for record in probes:
            if record.issued_at >= after and record.ok:
                assert record.completed_at is not None
                return record.completed_at - after
        return None

    def _check_reconvergence(self, violations: List[str]) -> Dict[str, Any]:
        bound = self.spec.reconvergence_bound_s
        discovery_s = self._first_ok_after(self.state.discovery_probes,
                                           self.last_heal_s)
        rpc_s = self._first_ok_after(self.state.rpc_probes, self.last_heal_s)
        if discovery_s is None or discovery_s > bound:
            violations.append(
                f"discovery did not re-converge within {bound}s of heal "
                f"(got {discovery_s})"
            )
        if rpc_s is None or rpc_s > bound:
            violations.append(
                f"rpc/routing did not re-converge within {bound}s of heal "
                f"(got {rpc_s})"
            )
        return {
            "last_heal_s": round(self.last_heal_s, 6),
            "discovery_s": None if discovery_s is None else round(discovery_s, 6),
            "rpc_s": None if rpc_s is None else round(rpc_s, 6),
            "bound_s": bound,
        }

    # ---------------------------------------------------------------- runner

    def run(self) -> Dict[str, Any]:
        spec = self.spec
        sim = self.network.sim
        TRACER.instant("chaos.campaign_start", mix=spec.mix, seed=spec.seed)
        sim.run_until(spec.duration_s)

        # Post-heal MiLAN reconfiguration: re-discover whatever survived.
        self._milan_after: Tuple[bool, int] = (False, 0)
        monitor = self.nodes[self.monitor_id]
        promise = monitor.find(Query("vital-sensor", max_results=20))
        promise.on_settle(lambda settled: self._judge_milan(settled, before=False))
        sim.run_for(4.0)

        # Every check files what it finds under the invariant it judges.
        found: Dict[str, List[str]] = {name: [] for name in (
            "no_timer_leaks", "exactly_once_delivery", "reconverged",
            "transactions_atomic", "heartbeat_exact", "replication_failover",
            "overload_protected",
        )}

        # Invariant: no leaked retransmit timers once traffic quiesced.
        leaked = len(self.bulk_sender._pending) + len(self.bulk_receiver._pending)
        if leaked:
            found["no_timer_leaks"].append(
                f"{leaked} retransmit timers still pending after quiesce"
            )
        window_sizes = [
            len(state.window)
            for transport in (self.bulk_sender, self.bulk_receiver)
            for state in transport._recv.values()
        ]
        max_window = max(window_sizes, default=0)
        if max_window > spec.recv_window:
            found["no_timer_leaks"].append(
                f"receive window exceeded bound: {max_window} > {spec.recv_window}"
            )

        # Invariant: exactly-once delivery on the reliable bulk stream.
        received = self.state.bulk_received
        duplicate_deliveries = len(received) - len(set(received))
        if duplicate_deliveries:
            found["exactly_once_delivery"].append(
                f"{duplicate_deliveries} duplicate deliveries on the bulk stream"
            )

        # Invariant: ledger atomicity across partitions.
        conserved = self.ledger.total() == _INITIAL_BALANCE * len(_ACCOUNTS)
        if not conserved:
            found["transactions_atomic"].append(
                f"ledger violated conservation: total={self.ledger.total()}"
            )
        unapplied = self.state.transfers_acked - self.ledger.applied
        if unapplied:
            found["transactions_atomic"].append(
                f"{len(unapplied)} acked transfers were never applied"
            )

        heartbeat = self._check_heartbeat(found["heartbeat_exact"])
        reconvergence = self._check_reconvergence(found["reconverged"])
        replication = self._check_replication(found["replication_failover"])
        overload = self._check_flashcrowd(found["overload_protected"])

        scorecard = self._scorecard(found, heartbeat, reconvergence,
                                    duplicate_deliveries, max_window, conserved,
                                    replication, overload)
        self._publish(scorecard)
        self._teardown()
        return scorecard

    def _scorecard(self, found, heartbeat, reconvergence,
                   duplicate_deliveries, max_window, conserved,
                   replication, overload) -> Dict[str, Any]:
        state = self.state
        sent = state.bulk_sent
        delivered = len(set(state.bulk_received))
        malformed = (
            self.bulk_sender.malformed_frames
            + self.bulk_receiver.malformed_frames
            + sum(d.malformed_frames for d in self.detectors.values())
            + sum(
                getattr(n.discovery, "malformed_frames", 0)
                + n.rpc.malformed_frames
                for n in self.nodes.values()
            )
            + sum(
                a.dropped.get("malformed", 0)
                for n in self.nodes.values()
                if (a := n.routing_agent) is not None
            )
        )
        corruptor = self._corruptor
        faults = dict(self.fault_counts)
        faults["frames_corrupted"] = 0 if corruptor is None else corruptor.corrupted
        faults["frames_truncated"] = 0 if corruptor is None else corruptor.truncated
        milan_after_ok, milan_after_sensors = self._milan_after
        violations = sorted(v for broken in found.values() for v in broken)
        return {
            "mix": self.spec.mix,
            "seed": self.spec.seed,
            "duration_s": self.spec.duration_s,
            "delivery": {
                "sent": sent,
                "delivered": delivered,
                "ratio": round(delivered / sent, 6) if sent else 1.0,
                "duplicate_deliveries": duplicate_deliveries,
                "give_ups": self.bulk_sender.give_ups,
                "retransmissions": self.bulk_sender.retransmissions,
                "window_overflows": self.bulk_receiver.window_overflows,
                "max_recv_window": max_window,
            },
            "malformed_frames": malformed,
            "medium": {
                "drops_partitioned": self.network.medium.drops_partitioned,
                "drops_faulted": self.network.medium.drops_faulted,
                "drops_loss": self.network.medium.drops_loss,
            },
            "faults": faults,
            "heartbeat": heartbeat,
            "reconvergence": reconvergence,
            "ledger": {
                "attempted": state.transfers_attempted,
                "acked": len(state.transfers_acked),
                "applied": len(self.ledger.applied),
                "conserved": conserved,
            },
            "milan": {
                "satisfied_before": state.milan_before,
                "satisfied_after": milan_after_ok,
                "sensors_after": milan_after_sensors,
            },
            "replication": replication,
            "overload": overload,
            "invariants": {name: not broken for name, broken in found.items()},
            "violations": violations,
            "ok": not violations,
        }

    def _publish(self, scorecard: Dict[str, Any]) -> None:
        """Mirror headline scorecard numbers into the metrics registry."""
        registry = get_registry()
        labels = {"mix": self.spec.mix, "seed": str(self.spec.seed)}
        registry.gauge("chaos.delivery_ratio", **labels).set(
            scorecard["delivery"]["ratio"]
        )
        registry.gauge("chaos.violations", **labels).set(
            len(scorecard["violations"])
        )
        registry.counter("chaos.give_ups", **labels).inc(
            scorecard["delivery"]["give_ups"]
        )
        registry.counter("chaos.malformed_frames", **labels).inc(
            scorecard["malformed_frames"]
        )
        TRACER.instant(
            "chaos.campaign_end", mix=self.spec.mix, seed=self.spec.seed,
            ok=scorecard["ok"], violations=len(scorecard["violations"]),
        )

    def _teardown(self) -> None:
        if self.repl_group is not None:
            close_group(self.repl_group)
            self.repl_client.close()
        if self.governor is not None:
            self.governor.stop()
        for detector in self.detectors.values():
            detector.stop()
        if self.bulk_pacer is not None:
            self.bulk_pacer.close()  # closes the inner reliable transport too
        elif not self.bulk_sender.closed:
            self.bulk_sender.close()
        self.bulk_receiver.close()
        for node in self.nodes.values():
            node.close()


def run_campaign(mix: str, seed: int, **overrides: Any) -> Dict[str, Any]:
    """Run one campaign; returns its scorecard (a pure function of inputs)."""
    spec = CampaignSpec(mix=mix, seed=seed, **overrides)
    return ChaosCampaign(spec).run()


#: Canonical serialized form: byte-identical for identical campaigns.
scorecard_bytes = canonical_json
