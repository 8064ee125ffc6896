"""The simtest world: a fixed deployment that executes one scenario.

Four nodes on an ideal (lossless, constant-latency) radio, so the *only*
nondeterminism in a run is what the scenario injects — faults from the
PR-4 vocabulary and seeded event-loop tie-breaking. Roles:

* ``n0_0`` (monitor): issues discovery lookups (cache disabled, so replies
  come from providers' authoritative state), RPC transfers, shared-object
  and tuple-space operations; receives the reliable bulk stream.
* ``n0_1`` (helper): second client for every subsystem; provides the
  dynamic ``extra*`` services; a crash/blip target.
* ``n1_0`` (spare): a crash/blip target that keeps floods interesting.
* ``n1_1`` (server): the transactional ledger, the shared-object host
  (write-through-acks mode — the linearizable protocol), the tuple-space
  server, and the bulk-stream sender. Never crashed, so end-of-run
  accounting is always meaningful.

The bulk stream runs reliable-over-secure, and frame tampering is scoped
to the bulk port: a tampered frame fails authentication and is dropped,
so to the delivery oracle corruption is indistinguishable from loss — the
model stays sound while the fault vocabulary stays rich. Discovery, RPC,
shared-object, and tuple-space traffic see crashes, partitions, loss, and
latency, whose effects the respective oracles and the linearizability
checker judge.

Every workload operation is recorded as an interval (invoke/response) in
a :class:`~repro.obs.history.History` and replayed through the Wing–Gong
checker at the end of the run, split per independent object (each
shared-object key, each tuple kind, the ledger).
"""

from __future__ import annotations

import struct
from collections import defaultdict
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.discovery.matching import Query
from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.medium import IDEAL_RADIO
from repro.obs.history import History
from repro.simtest.oracles import (
    DeliveryOracle,
    DiscoveryOracle,
    Divergence,
    LedgerOracle,
    MilanOracle,
    linearizability_divergences,
)
from repro.simtest.scenario import PARTITION_GROUPS, Scenario
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.reliable import ReliabilityParams
from repro.transport.simnet import SimFabric
from repro.transport.stack import StackSpec, build_stack
from repro.middleware import MiddlewareNode
from repro.util.rng import split_rng
from repro.workloads.campaign import ACCOUNTS, INITIAL_BALANCE, Ledger

MONITOR = "n0_0"
HELPER = "n0_1"
SPARE = "n1_0"
SERVER = "n1_1"

_BULK_PORT = "bulk"
_SO_PORT = "so"
_TS_PORT = "ts"
_KEY = b"simtest-shared-key"

_INDEX = struct.Struct(">I")

#: Bulk-stream reliability: a small window and retry budget so scenarios
#: exercise overflow and give-up paths; the full backoff chain is
#: 0.2+0.4+0.8+1.6+3.2 = 6.2 s, which the quiesce margin must cover.
_BULK_PARAMS = ReliabilityParams(ack_timeout_s=0.2, max_retries=4,
                                 backoff_factor=2.0, recv_window=8)
_BULK_CHAIN_S = sum(
    _BULK_PARAMS.timeout_for_attempt(a)
    for a in range(_BULK_PARAMS.max_retries + 1)
)

_RPC_TIMEOUT_S = 1.0
_RPC_RETRIES = 2

#: Padding appended to bulk payloads after the 4-byte index.
_BULK_PADDING = b"x" * 12


class RunResult:
    """Everything a run produced; a pure function of the scenario."""

    __slots__ = ("divergences", "stats")

    def __init__(self, divergences: List[Divergence],
                 stats: Optional[Dict[str, int]] = None) -> None:
        self.divergences = divergences
        self.stats = {} if stats is None else stats

    @property
    def ok(self) -> bool:
        return not self.divergences

    def signatures(self) -> List[Tuple[str, str]]:
        return [d.signature for d in self.divergences]


def issue_service_op(history: History, clients: Sequence[Any], op: str,
                     args: Tuple[Any, ...]) -> Any:
    """Issue one operation of the service vocabulary both simtest worlds
    draw from, and record its interval.

    ``args`` ends with the index of the issuing client; ``clients[index]``
    carries that client's ``ledger`` (``transfer`` / ``balance``),
    ``objects`` (``write`` / ``read``) and ``space`` (``out`` / ``inp`` /
    ``rdp`` / ``in_``) facades — the call shapes of
    :mod:`repro.replication.services`, whatever sits behind them. Returns
    the operation's promise.
    """
    *params, index = args
    client = clients[index]
    if op in ("transfer", "balance"):
        obj, name, recorded = ("ledger",), op, tuple(params)
        promise = getattr(client.ledger, op)(*params)
    elif op == "so_write":
        key, value = params
        obj, name, recorded = ("so", key), "write", (value,)
        promise = client.objects.write(key, value)
    elif op == "so_read":
        (key,) = params
        obj, name, recorded = ("so", key), "read", ()
        promise = client.objects.read(key)
    elif op == "ts_out":
        kind, value = params
        obj, name, recorded = ("ts", kind), "out", (kind, value)
        promise = client.space.out(kind, value, confirm=True)
    elif op in ("ts_inp", "ts_rdp", "ts_in"):
        (kind,) = params
        obj, name, recorded = ("ts", kind), op[3:], ()
        take = getattr(client.space,
                       {"inp": "inp", "rdp": "rdp", "in": "in_"}[name])
        promise = take(kind, None)
    else:
        raise ValueError(f"unknown service op {op!r}")
    history.record(obj, f"c{index}", name, recorded, promise)
    return promise


class _RpcLedger:
    """The ledger facade's call shape over the plain RPC ledger service."""

    def __init__(self, rpc: Any):
        self._rpc = rpc

    def _call(self, method: str, **params: Any) -> Any:
        return self._rpc.call(Address(SERVER, "svc"), method, params,
                              timeout_s=_RPC_TIMEOUT_S, retries=_RPC_RETRIES)

    def transfer(self, txid: str, src: str, dst: str, amount: int) -> Any:
        return self._call("transfer", txid=txid, src=src, dst=dst,
                          amount=amount)

    def balance(self, acct: str) -> Any:
        return self._call("balance", acct=acct)

    def ping(self) -> Any:
        return self._call("ping")


class SimWorld:
    """Builds the deployment for one scenario and runs it to completion."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

        self.network = topology.grid(
            2, 2, spacing=60.0, radio_profile=IDEAL_RADIO, seed=scenario.seed
        )
        self.sim = self.network.sim
        self.sim.set_tie_breaker(
            split_rng(scenario.tie_seed, "simtest.ties").random
        )
        self.fabric = SimFabric(self.network)
        self.injector = FailureInjector(self.network, seed=scenario.seed)

        self.delivery = DeliveryOracle(_BULK_PARAMS.recv_window)
        self.discovery = DiscoveryOracle()
        self.ledger_oracle = LedgerOracle(
            {a: INITIAL_BALANCE for a in ACCOUNTS}
        )
        self.milan = MilanOracle()
        self.divergences: List[Divergence] = []
        self.history = History(self.sim.now)
        self.stats: Dict[str, int] = defaultdict(int)

        # --- middleware nodes -------------------------------------------
        self.nodes: Dict[str, MiddlewareNode] = {
            node_id: MiddlewareNode(
                self.fabric, node_id, discovery_ttl=2, collect_window_s=0.5
            )
            for node_id in (MONITOR, HELPER, SPARE, SERVER)
        }
        self.nodes[MONITOR].discovery.use_cache = False

        # --- ledger service ---------------------------------------------
        self.ledger = Ledger()
        self.nodes[SERVER].provide(
            "ledger", "ledger",
            {
                "transfer": self._serve_transfer,
                "ping": self.ledger.ping,
                "balance": lambda acct: self.ledger.balances[acct],
            },
        )
        self.discovery.note_provided(0.0, "ledger", "ledger", SERVER)

        # --- reliable-over-secure bulk stream ---------------------------
        self._bulk_dst = Address(MONITOR, _BULK_PORT)
        bulk_spec = StackSpec(reliability_params=_BULK_PARAMS,
                              encryption_key=_KEY)
        self.bulk_receiver = build_stack(
            self.fabric.endpoint(MONITOR, _BULK_PORT), bulk_spec)
        self.bulk_receiver.set_receiver(self._on_bulk_payload)
        inner_on_frame = self.bulk_receiver._on_frame

        def checked_on_frame(source: Address, frame: bytes) -> None:
            before = len(self.delivery.delivered)
            inner_on_frame(source, frame)
            self.delivery.check_frame(
                self.sim.now(), source, frame, self.bulk_receiver, before
            )

        self.bulk_receiver.inner.set_receiver(checked_on_frame)
        self.bulk_sender = build_stack(
            self.fabric.endpoint(SERVER, _BULK_PORT), bulk_spec)
        self.bulk_sender.on_give_up = (
            lambda _dest, payload: self.delivery.note_gave_up(payload))

        # --- shared objects (linearizable mode) and tuple space ---------
        # The servers bind their fabric endpoints; the world keeps no handle.
        SharedObjectHost(
            self.fabric.endpoint(SERVER, _SO_PORT), write_through_acks=True
        )
        TupleSpaceServer(self.fabric.endpoint(SERVER, _TS_PORT))
        self.clients = tuple(
            SimpleNamespace(
                ledger=_RpcLedger(self.nodes[node_id].rpc),
                objects=SharedObjectCache(
                    self.fabric.endpoint(node_id, _SO_PORT),
                    Address(SERVER, _SO_PORT),
                ),
                space=TupleSpaceClient(
                    self.fabric.endpoint(node_id, _TS_PORT),
                    Address(SERVER, _TS_PORT),
                ),
            )
            for node_id in (MONITOR, HELPER)
        )

        # --- schedule the scenario --------------------------------------
        heal_by = scenario.horizon_s
        for step in scenario.steps:
            if step.op == "crash":
                node, downtime = step.args
                self.injector.crash_and_recover(node, step.at, downtime)
                self.discovery.note_fault(step.at, step.at + downtime + 0.05,
                                          (node,))
                heal_by = max(heal_by, step.at + downtime)
            elif step.op == "blip":
                self.injector.crash_and_recover(step.args[0], step.at, 0.0)
                self.discovery.note_fault(step.at, step.at + 0.05,
                                          (step.args[0],))
            elif step.op == "partition":
                group_index, duration = step.args
                self.injector.partition_at(
                    step.at, PARTITION_GROUPS[group_index], duration
                )
                self.discovery.note_fault(step.at, step.at + duration + 0.05)
                heal_by = max(heal_by, step.at + duration)
            elif step.op == "loss":
                duration, extra_loss = step.args
                self.injector.loss_burst_at(step.at, duration, extra_loss)
                self.discovery.note_fault(step.at, step.at + duration + 0.05)
                heal_by = max(heal_by, step.at + duration)
            elif step.op == "degrade":
                duration, extra_latency = step.args
                self.injector.degrade_at(step.at, duration,
                                         extra_latency_s=extra_latency)
                self.discovery.note_fault(
                    step.at, step.at + duration + extra_latency + 0.05
                )
                heal_by = max(heal_by, step.at + duration + extra_latency)
            elif step.op == "tamper":
                duration, probability = step.args
                self.injector.corrupt_frames_at(
                    step.at, duration, probability, only_ports=(_BULK_PORT,)
                )
                heal_by = max(heal_by, step.at + duration)
            else:
                self.sim.schedule_at(step.at, self._exec_step, step)

        # --- epilogue: post-heal convergence probes and quiesce ----------
        probe_at = max(scenario.horizon_s, heal_by) + 0.3
        self.sim.schedule_at(probe_at, self._issue_lookup, "ledger", True)
        self.sim.schedule_at(probe_at, self._issue_lookup, "extra", True)
        self.sim.schedule_at(probe_at, self._final_ping)
        self.end_s = max(
            scenario.horizon_s + _BULK_CHAIN_S + 0.4,
            probe_at + _RPC_TIMEOUT_S * (_RPC_RETRIES + 1) + 0.6,
        )

    # ------------------------------------------------------------- workload

    def _exec_step(self, step: Any) -> None:
        op, args = step.op, step.args
        if op == "bulk":
            index = args[0]
            self.delivery.note_sent(index)
            self.stats["bulk_sent"] += 1
            self.bulk_sender.send(
                self._bulk_dst, _INDEX.pack(index) + _BULK_PADDING
            )
        elif op == "lookup":
            self._issue_lookup(args[0], False)
        elif op == "provide":
            service_id = f"extra{args[0]}"
            self.nodes[HELPER].provide(service_id, "extra", {},
                                       attributes={"idx": str(args[0])})
            self.discovery.note_provided(self.sim.now(), service_id, "extra",
                                         HELPER)
        elif op == "withdraw":
            service_id = f"extra{args[0]}"
            self.nodes[HELPER].withdraw(service_id)
            self.discovery.note_withdrawn(self.sim.now(), service_id)
        elif op == "milan":
            self.milan.check_fleet(self.sim.now(), args[0])
            self.stats["milan_checked"] += 1
        else:
            if op.startswith(("so_", "ts_")):
                self.stats[f"{op[:2]}_ops"] += 1
            promise = issue_service_op(self.history, self.clients, op, args)
            if op == "transfer":
                txid = args[0]

                def note_acked(settled: Any) -> None:
                    if settled.fulfilled:
                        self.ledger_oracle.note_acked(txid)

                promise.on_settle(note_acked)

    def _serve_transfer(self, txid: str, src: str, dst: str,
                        amount: int) -> bool:
        result = self.ledger.transfer(txid, src, dst, amount)
        self.ledger_oracle.apply_transfer(
            self.sim.now(), txid, src, dst, amount, self.ledger
        )
        return result

    def _on_bulk_payload(self, _source: Address, payload: bytes) -> None:
        self.stats["bulk_delivered"] += 1
        self.delivery.note_delivered(self.sim.now(), payload)

    def _issue_lookup(self, service_type: str, exact: bool) -> None:
        issued = self.sim.now()
        self.stats["lookups"] += 1
        promise = self.nodes[MONITOR].find(
            Query(service_type, max_results=64)
        )

        def settle(settled: Any) -> None:
            results = (
                [d.service_id for d in settled.result()]
                if settled.fulfilled else []
            )
            self.discovery.check_lookup(issued, self.sim.now(), service_type,
                                        results, exact=exact)

        promise.on_settle(settle)

    def _final_ping(self) -> None:
        promise = self.clients[0].ledger.ping()
        self.history.record(("ledger",), "c0", "ping", (), promise)

        def settle(settled: Any) -> None:
            if not settled.fulfilled:
                self.divergences.append(Divergence(
                    "reconvergence", "rpc-failed", self.sim.now(),
                    "post-heal ping to the ledger did not complete",
                ))

        promise.on_settle(settle)

    # --------------------------------------------------------------- running

    def run(self) -> RunResult:
        self.sim.run_until(self.end_s)
        now = self.sim.now()
        self.delivery.finish(now, self.bulk_sender)
        self.ledger_oracle.finish(now, self.ledger)
        self.divergences += linearizability_divergences(
            self.history.rows(), {a: INITIAL_BALANCE for a in ACCOUNTS},
            now, self.stats,
        )

        divergences = sorted(
            self.delivery.divergences
            + self.discovery.divergences
            + self.ledger_oracle.divergences
            + self.milan.divergences
            + self.divergences,
            key=lambda d: (d.at, d.oracle, d.kind),
        )
        self.stats["events"] = self.sim.events_processed
        self.stats["bulk_gave_up"] = len(self.delivery.gave_up)
        self.stats["transfers_acked"] = len(self.ledger_oracle.acked)
        self.stats["milan_checked"] = self.milan.checked
        return RunResult(divergences, dict(self.stats))


def execute_scenario(scenario: Scenario,
                     plant: Optional[str] = None) -> RunResult:
    """Run one scenario (optionally with a planted defect) to a result."""
    if plant is None:
        return SimWorld(scenario).run()
    from repro.simtest.defects import applied

    with applied(plant):
        return SimWorld(scenario).run()
