"""Chaos campaigns: deterministic fault storms against the full stack.

The failure story of the middleware (Sections 3.4 and 3.8) is only as good
as its worst fault path. A *campaign* stands up a complete deployment —
multi-hop routing, reliable transport, distributed discovery, heartbeat
failure detection, an idempotent transactional ledger, and a MiLAN sensor
selection — then drives a seed-derived storm through
:class:`repro.netsim.failures.FailureInjector`. This module is the
*mechanism* (deployment, shared workload, ambient clock skew, the five
invariants every run is judged by, the scorecard); which storm runs is
*policy*, one row of :data:`repro.workloads.mixes.MIXES`.

After the storm heals, the campaign checks **recovery invariants**:

* ``no_timer_leaks`` — once traffic quiesces, every reliable-transport
  retransmit timer has resolved (acked or given up); no pending entry
  survives, and receive-side dedup state stayed within its bounded window.
* ``exactly_once_delivery`` — the reliable bulk stream delivered no
  payload twice despite retransmissions, duplication, and corruption.
* ``reconverged`` — after the last heal, a discovery lookup and an RPC
  round-trip both succeed within :data:`RECONVERGENCE_BOUND_S`.
* ``transactions_atomic`` — the ledger conserved money across partitions
  and crashes, and every transfer acknowledged to the client was applied
  (at-least-once with idempotent application = effectively exactly once).
* ``heartbeat_exact`` — every injected crash outage long enough to detect
  was reported by the monitor's failure detector exactly once.
* ``replication_failover`` / ``overload_protected`` — the ``failover`` /
  ``flashcrowd`` rows' own; vacuously true under every other mix.

Everything is a pure function of ``(mix, seed)``: the scorecard is
byte-identical across runs and across processes (the PR-3 sweep runner
fans campaigns over seeds). No wall-clock values appear in the scorecard.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.core.sensors import sensor_from_description
from repro.discovery.matching import Query
from repro.errors import ConfigurationError
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.obs.export import canonical_json
from repro.obs.tracing import TRACER
from repro.qos.spec import SupplierQoS
from repro.recovery.heartbeat import HeartbeatDetector
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.reliable import ReliabilityParams
from repro.transport.simnet import SimFabric
from repro.transport.stack import StackSpec, build_stack
from repro.middleware import MiddlewareNode
from repro.util.rng import split_rng
from repro.workloads.mixes import MIXES

#: The campaign fault mixes, in table order — the grid order of
#: ``exp_chaos`` and of the CI artifact.
FAULT_MIXES = tuple(MIXES)

_HB_PORT = "hb"
_BULK_PORT = "bulk"

#: Workload pacing and judging bounds (no caller ever varied them).
BULK_INTERVAL_S = 0.35
TRANSFER_INTERVAL_S = 1.0
PROBE_INTERVAL_S = 1.0
HB_INTERVAL_S = 1.0
HB_TIMEOUT_MULTIPLIER = 2.5
RECONVERGENCE_BOUND_S = 12.0
RECV_WINDOW = 256

#: Ledger accounts and their initial balance (conservation invariant);
#: the simtest world's ledger opens on the same books.
ACCOUNTS = ("acct0", "acct1", "acct2", "acct3")
INITIAL_BALANCE = 100

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


class CampaignSpec:
    """One campaign configuration; everything derives from (mix, seed).

    The default timeline: workload and faults live in the first ~45 virtual
    seconds, every fault heals by ``heal_deadline_s``, and the remainder is
    quiesce time long enough for the slowest retransmission chain
    (``0.2 * 2^5`` backoff, under maximum clock skew) to resolve, so the
    timer-leak invariant is meaningful rather than vacuous.
    """

    __slots__ = ("mix", "seed", "duration_s", "fault_start_s",
                 "heal_deadline_s", "bulk_messages", "transfer_stop_s")

    def __init__(self, mix: str, seed: int, duration_s: float = 75.0,
                 fault_start_s: float = 8.0, heal_deadline_s: float = 45.0,
                 bulk_messages: int = 120,
                 transfer_stop_s: float = 44.0) -> None:
        self.mix = mix
        self.seed = seed
        self.duration_s = duration_s
        self.fault_start_s = fault_start_s
        self.heal_deadline_s = heal_deadline_s
        self.bulk_messages = bulk_messages
        self.transfer_stop_s = transfer_stop_s
        if self.mix not in MIXES:
            raise ConfigurationError(
                f"unknown fault mix {self.mix!r}; available: {FAULT_MIXES}"
            )
        if self.duration_s <= self.heal_deadline_s:
            raise ConfigurationError(
                "campaign must outlive its heal deadline "
                f"({self.duration_s} <= {self.heal_deadline_s})"
            )


class _Episode:
    """One crash outage the heartbeat monitor is expected to report."""

    __slots__ = ("node_id", "crash_at", "recover_at")

    def __init__(self, node_id: str, crash_at: float,
                 recover_at: float) -> None:
        self.node_id = node_id
        self.crash_at = crash_at
        self.recover_at = recover_at


class _ProbeRecord:
    __slots__ = ("issued_at", "completed_at", "ok")

    def __init__(self, issued_at: float) -> None:
        self.issued_at = issued_at
        self.completed_at: Optional[float] = None
        self.ok = False


class _CampaignState:
    """Mutable observations accumulated while the simulation runs."""

    __slots__ = ("bulk_sent", "bulk_received", "transfers_attempted",
                 "transfers_acked", "suspect_events", "alive_events",
                 "discovery_probes", "rpc_probes", "milan_before",
                 "milan_after")

    def __init__(self) -> None:
        self.bulk_sent = 0
        self.bulk_received: List[int] = []
        self.transfers_attempted = 0
        self.transfers_acked: Set[str] = set()
        self.suspect_events: List[Tuple[float, str]] = []
        self.alive_events: List[Tuple[float, str]] = []
        self.discovery_probes: List[_ProbeRecord] = []
        self.rpc_probes: List[_ProbeRecord] = []
        self.milan_before: Optional[bool] = None
        self.milan_after: Tuple[bool, int] = (False, 0)


class Ledger:
    """An idempotent transfer service: the atomicity invariant's subject.

    ``transfer`` moves an amount between two accounts in one step and
    remembers applied transaction ids, so client-side retries (lost request
    *or* lost reply) cannot double-apply. Conservation of the total balance
    plus ``acked ⊆ applied`` is exactly "transactions stay atomic across
    partitions" at this scale. The simtest world serves this class too
    (and the ``double-apply`` plant breaks it); ``LedgerMachine`` is the
    *replicated* ledger and has an insufficient-funds rule this one lacks.
    """

    def __init__(self) -> None:
        self.balances: Dict[str, int] = {a: INITIAL_BALANCE for a in ACCOUNTS}
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


class ChaosCampaign:
    """Builds the deployment, schedules the storm, runs it, and judges it."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec
        self.rng = split_rng(spec.seed, f"chaos:{spec.mix}")
        self.state = _CampaignState()
        self.fault_counts: Dict[str, int] = {
            "crashes": 0, "blips": 0, "nested_crashes": 0, "partitions": 0,
            "loss_bursts": 0, "degrade_windows": 0, "corrupt_windows": 0,
            "skewed_nodes": 0, "frames_corrupted": 0, "frames_truncated": 0,
        }
        self.last_heal_s = spec.fault_start_s
        self.mix = MIXES[spec.mix](self)
        self._build_stack()
        self.mix.build()
        self._schedule_workload()
        # Clock skew everywhere except the monitor (its detector timing
        # anchors the heartbeat invariant) in every mix: drifting timers are
        # ambient reality, not an exotic fault. Drawn before the storm.
        for node_id in self.network.node_ids():
            if node_id != self.monitor_id:
                factor = 1.0 + self.rng.uniform(-0.08, 0.08)
                self.fabric.set_clock_skew(node_id, factor)
                self.fault_counts["skewed_nodes"] += 1
        self.mix.storm()

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
        self.ledger = Ledger()
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
        # ``bulk_pipe`` is what the workload sends into: the reliable sender
        # itself, unless a mix's ``build()`` puts something above it.
        spec = StackSpec(
            reliability_params=ReliabilityParams(recv_window=RECV_WINDOW))
        self.bulk_sender = build_stack(
            self.routed_port(self.bulk_src_id, _BULK_PORT), spec)
        self.bulk_receiver = build_stack(
            self.routed_port(self.bulk_dst_id, _BULK_PORT), spec)
        self.bulk_receiver.set_receiver(self._on_bulk)
        self.bulk_pipe: Any = self.bulk_sender

        # Heartbeats: everyone beats toward the monitor; the monitor watches.
        self.detectors: Dict[str, HeartbeatDetector] = {}
        monitor_hb = Address(self.monitor_id, _HB_PORT)
        for node_id in ids:
            detector = HeartbeatDetector(
                self.routed_port(node_id, _HB_PORT),
                interval_s=HB_INTERVAL_S,
                timeout_multiplier=HB_TIMEOUT_MULTIPLIER,
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

    def routed_port(self, node_id: str, port: str) -> Any:
        """A port on ``node_id``'s routing agent: traffic through it is
        multi-hop, like everything else the campaign judges."""
        agent = self.nodes[node_id].routing_agent
        if agent is None:
            raise ConfigurationError(f"node {node_id!r} has no routing agent")
        return agent.open_port(port)

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
            sim.schedule_at(2.0 + i * BULK_INTERVAL_S, send_bulk, i)

        # Idempotent ledger transfers with client-side retries.
        monitor = self.nodes[self.monitor_id]
        provider = f"{self.ledger_id}:svc"
        transfer_rng = split_rng(spec.seed, f"chaos-transfers:{spec.mix}")

        def send_transfer(txid: str) -> None:
            src, dst_acct = transfer_rng.sample(ACCOUNTS, 2)
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
            t += TRANSFER_INTERVAL_S

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
            t += PROBE_INTERVAL_S

        # The mix's own traffic goes exactly here — after the probes, before
        # the baseline: events of one instant fire in scheduling order, and
        # the scorecards are pinned to this one.
        self.mix.schedule_workload()

        # MiLAN baseline selection early in the run.
        def milan_baseline() -> None:
            def settle(settled) -> None:
                self.state.milan_before, _ = self._judge_milan(settled)

            monitor.find(Query("vital-sensor", max_results=20)).on_settle(settle)

        sim.schedule_at(5.0, milan_baseline)

    def _judge_milan(self, settled) -> Tuple[bool, int]:
        """Would MiLAN be satisfied by the sensors a lookup found?"""
        if settled.rejected:
            return False, 0
        descriptions = settled.result()
        milan = Milan(health_monitor_policy())
        for description in descriptions:
            milan.add_sensor(sensor_from_description(description))
        return milan.application_satisfied(), len(descriptions)

    # ------------------------------------------- what a mix's storm draws on

    def fault_times(self, count: int, duration_range: Tuple[float, float]):
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

    def crash(self, node_id: str, start: float, downtime: float) -> None:
        self.injector.crash_and_recover(node_id, start, downtime)
        self.fault_counts["crashes"] += 1
        self.last_heal_s = max(self.last_heal_s, start + downtime)

    def loss_burst(self, min_loss: float, max_loss: float) -> None:
        """One loss burst of 3-5 s; the window is drawn before the loss."""
        for start, duration in self.fault_times(1, (3.0, 5.0)):
            self.injector.loss_burst_at(
                start, duration, extra_loss=self.rng.uniform(min_loss, max_loss)
            )
            self.fault_counts["loss_bursts"] += 1

    # ------------------------------------------------------------ invariants

    def _merged_episodes(self) -> List[_Episode]:
        """The crash outages, read off the injector's own log.

        An un-nested ``crash`` and the un-nested ``recover`` after it bound
        one outage: overlapping injections were already merged by the
        injector's per-node outage depth, which logs everything inside an
        open outage as ``nested``. A zero-length blip is no outage.
        """
        episodes: List[_Episode] = []
        down_since: Dict[str, float] = {}
        for fault in self.injector.log:
            if fault.detail:  # nested / spurious: no liveness change
                continue
            if fault.kind == "crash":
                down_since[fault.target] = fault.at
            elif fault.kind == "recover":
                crash_at = down_since.pop(fault.target)
                if fault.at > crash_at:
                    episodes.append(_Episode(fault.target, crash_at, fault.at))
        return episodes

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
        detect_slack = HB_INTERVAL_S * HB_TIMEOUT_MULTIPLIER + 2.0
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

    def _first_ok_after(self, probes: List[_ProbeRecord],
                        after: float) -> Optional[float]:
        for record in probes:
            if record.issued_at >= after and record.ok:
                assert record.completed_at is not None
                return record.completed_at - after
        return None

    def _check_reconvergence(self, violations: List[str]) -> Dict[str, Any]:
        bound = RECONVERGENCE_BOUND_S
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
        def settle(settled) -> None:
            self.state.milan_after = self._judge_milan(settled)

        monitor = self.nodes[self.monitor_id]
        monitor.find(Query("vital-sensor", max_results=20)).on_settle(settle)
        sim.run_for(4.0)

        # Every check files what it finds under the invariant it judges:
        # five are the campaign's, the last two belong to rows of the table.
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
        if max_window > RECV_WINDOW:
            found["no_timer_leaks"].append(
                f"receive window exceeded bound: {max_window} > {RECV_WINDOW}"
            )

        # Invariant: exactly-once delivery on the reliable bulk stream.
        received = self.state.bulk_received
        duplicate_deliveries = len(received) - len(set(received))
        if duplicate_deliveries:
            found["exactly_once_delivery"].append(
                f"{duplicate_deliveries} duplicate deliveries on the bulk stream"
            )

        # Invariant: ledger atomicity across partitions.
        conserved = self.ledger.total() == INITIAL_BALANCE * len(ACCOUNTS)
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
        # The scorecard sections only a mix can fill; null under the others.
        sections = {"replication": None, "overload": None,
                    **self.mix.check(found)}

        scorecard = self._scorecard(found, heartbeat, reconvergence,
                                    duplicate_deliveries, max_window, conserved,
                                    sections)
        TRACER.instant(
            "chaos.campaign_end", mix=spec.mix, seed=spec.seed,
            ok=scorecard["ok"], violations=len(scorecard["violations"]),
        )
        self._teardown()
        return scorecard

    def _scorecard(self, found, heartbeat, reconvergence,
                   duplicate_deliveries, max_window, conserved,
                   sections) -> Dict[str, Any]:
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
        milan_after_ok, milan_after_sensors = state.milan_after
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
            "faults": dict(self.fault_counts),
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
            **sections,
            "invariants": {name: not broken for name, broken in found.items()},
            "violations": violations,
            "ok": not violations,
        }

    def _teardown(self) -> None:
        self.mix.close()
        for detector in self.detectors.values():
            detector.stop()
        self.bulk_pipe.close()  # closes the reliable sender beneath it too
        self.bulk_receiver.close()
        for node in self.nodes.values():
            node.close()


def run_campaign(mix: str, seed: int, **overrides: Any) -> Dict[str, Any]:
    """Run one campaign; returns its scorecard (a pure function of inputs)."""
    spec = CampaignSpec(mix=mix, seed=seed, **overrides)
    return ChaosCampaign(spec).run()


#: Canonical serialized form: byte-identical for identical campaigns.
scorecard_bytes = canonical_json
