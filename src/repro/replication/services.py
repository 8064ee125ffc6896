"""Replicated state machines and client facades for the existing services.

Three deterministic :class:`~repro.replication.replica.StateMachine`
implementations mirror the middleware's single-host services — the
idempotent transfer ledger (chaos campaigns / simtest worlds), the
shared-object store (:mod:`repro.transactions.sharedobjects`) and the
tuple space (:mod:`repro.transactions.tuplespace`) — plus thin facades
whose call shapes match the original clients, so unmodified application
code talks to a replicated, sharded deployment.

The tuple-space machine replicates its *waiters* too: a blocking ``in``
with no match is applied on every replica (registering the waiter in
machine state and parking the request), and the ``out`` that later matches
computes the wakeup deterministically during apply — so after a failover
the new primary knows exactly which blocked request owns the tuple, and a
client retry is answered from the replicated result cache instead of
consuming a second tuple.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.interop.codec import wire_plain
from repro.replication.client import GroupClient, ShardedClient
from repro.replication.replica import Outcome, StateMachine
from repro.transactions.tuplespace import TupleStore, template_matches
from repro.util.ids import IdGenerator
from repro.util.promise import Promise


# ------------------------------------------------------------------ ledger


class LedgerMachine(StateMachine):
    """Account balances with idempotent, atomic transfers (txid-deduped)."""

    def __init__(self, accounts: Optional[Dict[str, int]] = None):
        self.balances: Dict[str, int] = dict(accounts or {})
        # txid -> None: a dict, not a set, because CPython grows a small
        # set four-fold and leaves it ~80 % empty (87 B a txid against 34).
        self.applied_txids: Dict[str, None] = {}

    def apply(self, name: str, args: Tuple[Any, ...]) -> Outcome:
        if name == "transfer":
            txid, src, dst, amount = args
            if txid in self.applied_txids:
                return Outcome(result=True)
            if self.balances.get(src, 0) < amount:
                return Outcome(result=False)
            self.applied_txids[txid] = None
            self.balances[src] = self.balances.get(src, 0) - amount
            self.balances[dst] = self.balances.get(dst, 0) + amount
            return Outcome(result=True)
        if name == "deposit":
            txid, account, amount = args
            if txid not in self.applied_txids:
                self.applied_txids[txid] = None
                self.balances[account] = self.balances.get(account, 0) + amount
            return Outcome(result=self.balances[account])
        raise ValueError(f"unknown ledger op {name!r}")

    def read(self, name: str, args: Tuple[Any, ...]) -> Any:
        if name == "balance":
            return self.balances.get(args[0], 0)
        if name == "total":
            return sum(self.balances.values())
        if name == "ping":
            return "pong"
        raise ValueError(f"unknown ledger read {name!r}")

    def snapshot(self) -> Any:
        return {
            "balances": dict(self.balances),
            "applied": sorted(self.applied_txids),
        }

    def restore(self, snapshot: Any) -> None:
        self.balances = dict(snapshot["balances"])
        self.applied_txids = dict.fromkeys(snapshot["applied"])


class ReplicatedLedger:
    """The chaos/simtest ledger API over one replica group."""

    def __init__(self, client: GroupClient):
        self.client = client

    def transfer(self, txid: str, src: str, dst: str, amount: int) -> Promise:
        # The transaction id is the natural idempotency key: a retry that
        # crosses a failover dedups against the replicated result cache.
        return self.client.command(
            "transfer", txid, src, dst, amount, rid=f"tx:{txid}"
        )

    def deposit(self, txid: str, account: str, amount: int) -> Promise:
        return self.client.command(
            "deposit", txid, account, amount, rid=f"tx:{txid}"
        )

    def balance(self, account: str, mode: str = "primary") -> Promise:
        return self.client.read("balance", account, mode=mode)

    def ping(self) -> Promise:
        return self.client.read("ping")


class ShardedLedger:
    """Account-sharded ledger: per-account ops only (no cross-shard txns)."""

    def __init__(self, client: ShardedClient):
        self.client = client

    def deposit(self, txid: str, account: str, amount: int) -> Promise:
        return self.client.command(
            account, "deposit", txid, account, amount, rid=f"tx:{txid}"
        )

    def balance(self, account: str, mode: str = "primary") -> Promise:
        return self.client.read(account, "balance", account, mode=mode)


# ---------------------------------------------------------- shared objects


class KVMachine(StateMachine):
    """Versioned key→value store matching the shared-object semantics:
    writes return the new version, reads return the value.

    A value is stored as :func:`~repro.interop.codec.wire_plain` makes it,
    as :class:`~repro.transactions.sharedobjects.SharedObjectCache` stores
    one: the writer's object reaches every replica by reference, and no
    replica may hold it (or another replica's copy)."""

    def __init__(self) -> None:
        self.objects: Dict[str, Tuple[Any, int]] = {}

    def apply(self, name: str, args: Tuple[Any, ...]) -> Outcome:
        if name == "write":
            key, value = args
            version = self.objects.get(key, (None, 0))[1] + 1
            self.objects[key] = (wire_plain(value), version)
            return Outcome(result=version)
        raise ValueError(f"unknown kv op {name!r}")

    def read(self, name: str, args: Tuple[Any, ...]) -> Any:
        if name == "read":
            entry = self.objects.get(args[0])
            return entry[0] if entry is not None else None
        if name == "version":
            entry = self.objects.get(args[0])
            return entry[1] if entry is not None else 0
        raise ValueError(f"unknown kv read {name!r}")

    def snapshot(self) -> Any:
        return {k: [v, ver] for k, (v, ver) in self.objects.items()}

    def restore(self, snapshot: Any) -> None:
        self.objects = {k: (wire_plain(v), ver)
                        for k, (v, ver) in snapshot.items()}


class ReplicatedSharedObjects:
    """The :class:`~repro.transactions.sharedobjects.SharedObjectCache`
    call shape (read fulfills with value, write with new version) over a
    sharded replicated deployment."""

    def __init__(self, client: ShardedClient):
        self.client = client

    def read(self, key: str, mode: str = "primary") -> Promise:
        return self.client.read(key, "read", key, mode=mode)

    def write(self, key: str, value: Any) -> Promise:
        return self.client.command(key, "write", key, value)


# ------------------------------------------------------------- tuple space


class TupleSpaceMachine(StateMachine):
    """Tuple space with *replicated* blocking waiters.

    ``in``/``rd`` carry their request id as an op argument: registering a
    waiter is itself a replicated state change, so every replica knows
    which requests are parked, and wakeups computed by a later ``out`` are
    identical group-wide. Waiter semantics mirror
    :class:`repro.transactions.tuplespace.TupleSpaceServer`: one ``out``
    wakes every waiting read and at most the first matching take.

    Tuples, templates, wakeups and results are
    :func:`~repro.interop.codec.wire_plain` copies: a command's args reach
    every replica by reference, so a list nested in the writer's tuple
    must not be the one the replicas store, and no two holders share one.
    """

    def __init__(self) -> None:
        self.tuples = TupleStore()
        # (rid, template, destructive) in registration order.
        self.waiters: List[Tuple[str, List[Any], bool]] = []

    def apply(self, name: str, args: Tuple[Any, ...]) -> Outcome:
        if name == "out":
            values = wire_plain(list(args[0]))
            wakeups: List[Tuple[str, Any]] = []
            consumed = False
            remaining: List[Tuple[str, List[Any], bool]] = []
            for rid, template, destructive in self.waiters:
                if not template_matches(list(template), values):
                    remaining.append((rid, template, destructive))
                    continue
                if destructive:
                    if consumed:
                        remaining.append((rid, template, destructive))
                        continue
                    consumed = True
                wakeups.append((rid, wire_plain(values)))
            self.waiters = remaining
            if not consumed:
                self.tuples.add(values)
            return Outcome(result=wire_plain(values), wakeups=tuple(wakeups))
        if name == "inp":
            return Outcome(result=self._find(wire_plain(args[0]), remove=True))
        if name in ("in", "rd"):
            template, rid = wire_plain(list(args[0])), args[1]
            found = self._find(template, remove=(name == "in"))
            if found is not None:
                return Outcome(result=found)
            if all(w[0] != rid for w in self.waiters):
                self.waiters.append((rid, template, name == "in"))
            return Outcome(pending=True)
        raise ValueError(f"unknown tuple-space op {name!r}")

    def _find(self, template: List[Any], remove: bool) -> Optional[List[Any]]:
        found = self.tuples.find(template, remove=remove)
        return None if found is None else wire_plain(found)

    def read(self, name: str, args: Tuple[Any, ...]) -> Any:
        if name == "rdp":
            return self._find(wire_plain(args[0]), remove=False)
        if name == "count":
            return len(self.tuples)
        raise ValueError(f"unknown tuple-space read {name!r}")

    def snapshot(self) -> Any:
        return {
            "tuples": [list(t) for t in self.tuples],
            "waiters": [[r, list(t), d] for r, t, d in self.waiters],
        }

    def restore(self, snapshot: Any) -> None:
        self.tuples = TupleStore(wire_plain(t) for t in snapshot["tuples"])
        self.waiters = [(r, wire_plain(t), bool(d))
                        for r, t, d in snapshot["waiters"]]

    def pending_rids(self) -> Iterable[str]:
        return [rid for rid, _template, _destructive in self.waiters]


class ReplicatedTupleSpace:
    """The :class:`~repro.transactions.tuplespace.TupleSpaceClient` call
    shape over a sharded deployment.

    Tuples shard by their first element (the "kind"), so templates must
    have a concrete (non-wildcard) first element — the same constraint a
    statically partitioned tuple space imposes.
    """

    def __init__(self, client: ShardedClient):
        self.client = client
        # Scope waiter rids to this client's endpoint: rids are replica-side
        # idempotency keys, so two clients must never collide.
        local = client.groups[0].transport.local_address
        self._rids = IdGenerator(f"tsw.{local.node}.{local.port}")

    @staticmethod
    def _key(values: Tuple[Any, ...]) -> str:
        if not values or values[0] is None:
            raise ValueError(
                "sharded tuple space needs a concrete first element"
            )
        return str(values[0])

    def out(self, *values: Any, confirm: bool = False) -> Optional[Promise]:
        promise = self.client.command(self._key(values), "out", list(values))
        return promise if confirm else None

    def rd(self, *template: Any) -> Promise:
        rid = self._rids.next()
        return self.client.command(
            self._key(template), "rd", list(template), rid,
            rid=rid, blocking=True,
        )

    def in_(self, *template: Any) -> Promise:
        rid = self._rids.next()
        return self.client.command(
            self._key(template), "in", list(template), rid,
            rid=rid, blocking=True,
        )

    def rdp(self, *template: Any) -> Promise:
        return self.client.read(self._key(template), "rdp", list(template))

    def inp(self, *template: Any) -> Promise:
        return self.client.command(self._key(template), "inp", list(template))
