"""The replicated simtest world: kill the primary, judge the failover.

A second fixed deployment next to :class:`repro.simtest.world.SimWorld`,
built around :mod:`repro.replication` instead of single-host services.
Six nodes on an ideal radio:

* ``n0_0`` / ``n0_1`` (clients): each runs a full client stack — a
  :class:`~repro.replication.services.ReplicatedLedger` over the ledger
  group, sharded shared objects, and a sharded tuple space.
* ``n1_0`` / ``n1_1`` / ``n1_2`` (replicas): every service is a 3-way
  replica group over these nodes; ``n1_2`` (the highest id, the member
  Bully election would pick) starts as primary of every group.

Mid-horizon the scenario crashes ``n1_2`` — the primary of *every*
group — and recovers it several seconds later. The workload keeps
issuing operations throughout, so client retries cross the failover.

Every operation is recorded as an interval and fed to the Wing–Gong
checker per independent object (the ledger, each shared-object key,
each tuple kind). On top of linearizability the run is judged by
replication-specific oracles:

* **failover bound** — some surviving replica takes over the ledger
  group within ``FAILOVER_BOUND_S`` of the crash;
* the group invariants of :func:`repro.replication.check.check_group` on
  every group after the recovered node caught up — one primary (at a
  later term when it was crashed), replicas agreeing on applied index and
  machine state, and on the ledger group conservation and
  acked-is-applied.

Everything is a pure function of ``(seed, tie_seed)``: the scorecard is
byte-identical across reruns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.netsim import topology
from repro.netsim.failures import FailureInjector
from repro.netsim.medium import IDEAL_RADIO
from repro.obs.export import canonical_json
from repro.obs.history import History
from repro.replication.check import check_group, close_group, group_summary
from repro.replication.client import GroupClient, ShardedClient
from repro.replication.replica import (
    ReplicationParams,
    deploy_group,
    deploy_sharded,
)
from repro.replication.services import (
    KVMachine,
    LedgerMachine,
    ReplicatedLedger,
    ReplicatedSharedObjects,
    ReplicatedTupleSpace,
    TupleSpaceMachine,
)
from repro.simtest.oracles import Divergence, linearizability_divergences
from repro.simtest.scenario import _pick
from repro.simtest.world import RunResult, issue_service_op
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.util.rng import split_rng

CLIENTS = ("n0_0", "n0_1")
REPLICAS = ("n1_0", "n1_1", "n1_2")
PRIMARY = "n1_2"

_LED_PORT = "led"
_SO_PORT = "so"
_TS_PORT = "ts"
_NUM_SHARDS = 2

ACCOUNTS = ("acct0", "acct1", "acct2", "acct3")
INITIAL_BALANCE = 1000

SO_KEYS = ("cfg", "route", "limit", "peer")
TS_KINDS = ("job", "evt")

HORIZON_S = 16.0
N_OPS = 60

#: Detection (~0.9 s) + a couple of election rounds, with headroom.
FAILOVER_BOUND_S = 5.0

#: Group timers for the scenario: detection ~0.9 s, election ~0.6 s.
REPL_PARAMS = ReplicationParams(
    hb_interval_s=0.3,
    hb_timeout_multiplier=3.0,
    elect_timeout_s=0.3,
    sync_timeout_s=0.3,
    coord_timeout_s=0.8,
    beacon_interval_s=0.3,
    write_timeout_s=3.0,
)

_WEIGHTS = [
    ("transfer", 10),
    ("balance", 6),
    ("so_write", 10),
    ("so_read", 10),
    ("ts_out", 6),
    ("ts_inp", 4),
    ("ts_rdp", 4),
    ("ts_in", 2),
]


class _ClientStack:
    """One client node's facades over every replicated service."""

    def __init__(self, fabric: SimFabric, node_id: str, so_map, ts_map):
        self.ledger_client = GroupClient(
            fabric.endpoint(node_id, f"{_LED_PORT}.c"),
            [Address(r, _LED_PORT) for r in REPLICAS],
            request_timeout_s=0.5,
            max_attempts=16,
        )
        self.so_client = ShardedClient(
            lambda shard: fabric.endpoint(node_id, f"{_SO_PORT}.c{shard}"),
            so_map, request_timeout_s=0.5, max_attempts=16,
        )
        self.ts_client = ShardedClient(
            lambda shard: fabric.endpoint(node_id, f"{_TS_PORT}.c{shard}"),
            ts_map, request_timeout_s=0.5, max_attempts=16,
        )
        self.ledger = ReplicatedLedger(self.ledger_client)
        self.objects = ReplicatedSharedObjects(self.so_client)
        self.space = ReplicatedTupleSpace(self.ts_client)

    def close(self) -> None:
        self.ledger_client.close()
        self.so_client.close()
        self.ts_client.close()


class ReplicatedWorld:
    """Builds the replicated deployment and runs one primary-kill run."""

    def __init__(self, seed: int, tie_seed: int = 0):
        self.seed = seed
        self.tie_seed = tie_seed

        self.network = topology.grid(
            2, 3, spacing=60.0, radio_profile=IDEAL_RADIO, seed=seed
        )
        self.sim = self.network.sim
        self.sim.set_tie_breaker(split_rng(tie_seed, "simtest.ties").random)
        self.fabric = SimFabric(self.network)
        self.injector = FailureInjector(self.network, seed=seed)

        self.divergences: List[Divergence] = []
        self.history = History(self.sim.now)
        self.stats: Dict[str, int] = defaultdict(int)
        self.acked_txids: set = set()

        factory = self.fabric.endpoint
        self.ledger_group = deploy_group(
            factory, REPLICAS,
            lambda: LedgerMachine({a: INITIAL_BALANCE for a in ACCOUNTS}),
            port=_LED_PORT, params=REPL_PARAMS, group="led",
        )
        self.so_map, self.so_groups = deploy_sharded(
            factory, REPLICAS, _NUM_SHARDS, KVMachine,
            port=_SO_PORT, params=REPL_PARAMS, group_prefix="so",
        )
        self.ts_map, self.ts_groups = deploy_sharded(
            factory, REPLICAS, _NUM_SHARDS, TupleSpaceMachine,
            port=_TS_PORT, params=REPL_PARAMS, group_prefix="ts",
        )
        self.clients = tuple(
            _ClientStack(self.fabric, node_id, self.so_map, self.ts_map)
            for node_id in CLIENTS
        )

        # --- the fault: kill every group's primary mid-horizon -----------
        rng = split_rng(seed, "simtest.replicated")
        self.first_new_primary_at: Optional[float] = None
        self.new_primary: Optional[str] = None
        self.crash_at = round(5.5 + rng.uniform(0.0, 1.0), 3)
        downtime = round(5.0 + rng.uniform(0.0, 1.5), 3)
        self.recover_at = round(self.crash_at + downtime, 3)
        self.injector.crash_and_recover(PRIMARY, self.crash_at, downtime)
        probe_at = self.crash_at + 0.25
        while probe_at < self.crash_at + FAILOVER_BOUND_S + 2.0:
            self.sim.schedule_at(probe_at, self._probe_failover)
            probe_at += 0.25

        # --- the workload ------------------------------------------------
        for i in range(N_OPS):
            at = round(rng.uniform(0.5, HORIZON_S - 1.0), 3)
            op = _pick(rng, _WEIGHTS)
            client = rng.choice((0, 1))
            if op == "transfer":
                src, dst = rng.sample(ACCOUNTS, 2)
                args: Tuple[Any, ...] = (
                    f"rt{i}", src, dst, rng.randint(1, 20), client
                )
            elif op == "balance":
                args = (rng.choice(ACCOUNTS), client)
            elif op == "so_write":
                args = (rng.choice(SO_KEYS), rng.randint(0, 999), client)
            elif op == "so_read":
                args = (rng.choice(SO_KEYS), client)
            elif op == "ts_out":
                args = (rng.choice(TS_KINDS), rng.randint(0, 99), client)
            else:  # ts_inp / ts_rdp / ts_in
                args = (rng.choice(TS_KINDS), client)
            self.sim.schedule_at(at, self._exec, op, args)

        self.end_s = max(HORIZON_S, self.recover_at) + 4.0

    # -------------------------------------------------------------- workload

    def _exec(self, op: str, args: Tuple[Any, ...]) -> None:
        self.stats[f"ops_{op}"] += 1
        promise = issue_service_op(self.history, self.clients, op, args)
        if op == "transfer":
            txid = args[0]

            def note_acked(settled: Any) -> None:
                if settled.fulfilled and settled.result() is True:
                    self.acked_txids.add(txid)

            promise.on_settle(note_acked)

    # --------------------------------------------------------------- oracles

    def _probe_failover(self) -> None:
        if self.first_new_primary_at is not None:
            return
        for node, replica in self.ledger_group.items():
            if node != PRIMARY and replica.role == "primary":
                self.first_new_primary_at = self.sim.now()
                self.new_primary = node
                return

    def _all_groups(self):
        yield "led", self.ledger_group
        for shard, members in sorted(self.so_groups.items()):
            yield f"so.s{shard}", members
        for shard, members in sorted(self.ts_groups.items()):
            yield f"ts.s{shard}", members

    def _check_replication(self, now: float) -> None:
        if self.first_new_primary_at is None:
            self.divergences.append(Divergence(
                "failover", "no-new-primary", now,
                f"no survivor took over the ledger group within "
                f"{FAILOVER_BOUND_S}s of the crash at t={self.crash_at}",
            ))
        elif self.first_new_primary_at - self.crash_at > FAILOVER_BOUND_S:
            self.divergences.append(Divergence(
                "failover", "bound-exceeded", now,
                f"{self.new_primary} took over the ledger group "
                f"{self.first_new_primary_at - self.crash_at:.3f}s after "
                f"the crash at t={self.crash_at}; the bound is "
                f"{FAILOVER_BOUND_S}s",
            ))
        for label, members in self._all_groups():
            ledger_args = (
                (self.acked_txids, INITIAL_BALANCE * len(ACCOUNTS))
                if members is self.ledger_group else ()
            )
            findings = check_group(members, *ledger_args, failed_over=True)
            self.divergences += [
                Divergence("replication", invariant, now,
                           f"group {label}: {detail}")
                for invariant, detail in findings
            ]

    # ---------------------------------------------------------------- runner

    def run(self) -> RunResult:
        self.sim.run_until(self.end_s)
        now = self.sim.now()
        self._check_replication(now)
        self.divergences += linearizability_divergences(
            self.history.rows(), {a: INITIAL_BALANCE for a in ACCOUNTS},
            now, self.stats,
        )
        self.stats["events"] = self.sim.events_processed
        self.stats["transfers_acked"] = len(self.acked_txids)
        replicas = [replica for _label, members in self._all_groups()
                    for replica in members.values()]
        self.stats["election_rounds"] = sum(
            replica.election.rounds for replica in replicas)
        self.stats["log_catchups"] = sum(
            replica.catchups for replica in replicas)
        for client in self.clients:
            client.close()
        for _label, members in self._all_groups():
            close_group(members)
        divergences = sorted(
            self.divergences, key=lambda d: (d.at, d.oracle, d.kind)
        )
        return RunResult(divergences, dict(self.stats))

    # ------------------------------------------------------------- scorecard

    def scorecard(self, result: RunResult) -> Dict[str, Any]:
        primary_machine = self.ledger_group[
            self.new_primary or PRIMARY
        ].machine
        latency = (
            None if self.first_new_primary_at is None
            else round(self.first_new_primary_at - self.crash_at, 6)
        )
        return {
            "seed": self.seed,
            "tie_seed": self.tie_seed,
            "ok": result.ok,
            "divergences": [d.to_dict() for d in result.divergences],
            "failover": {
                "crash_at": self.crash_at,
                "recover_at": self.recover_at,
                "latency_s": latency,
                "new_primary": self.new_primary,
                "bound_s": FAILOVER_BOUND_S,
                "terms": group_summary(self.ledger_group)["terms"],
            },
            "ledger": {
                "balances": dict(sorted(primary_machine.balances.items())),
                "applied": len(primary_machine.applied_txids),
                "acked": len(self.acked_txids),
            },
            "stats": dict(sorted(result.stats.items())),
        }


def run_failover(seed: int, tie_seed: int = 0) -> Dict[str, Any]:
    """One primary-kill run; returns the scorecard (pure in its inputs)."""
    world = ReplicatedWorld(seed, tie_seed)
    return world.scorecard(world.run())


#: Canonical serialized form: byte-identical for identical runs.
scorecard_bytes = canonical_json
