"""Reference-model oracles stepped in lockstep with the implementation.

Each oracle keeps a small abstract state machine — the *specification* of a
subsystem — and compares it against the real component's state after every
relevant event. A mismatch becomes a :class:`Divergence` carrying a stable
``(oracle, kind)`` signature the shrinker can match candidate traces
against.

The oracles here are deliberately pure python-over-dicts: the point is that
they are simple enough to audit by eye, the way
``feasibility_reference`` is for the bitmask search.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.feasibility import minimal_feasible_sets
from repro.core.feasibility_reference import minimal_feasible_sets_reference
from repro.core.sensors import SensorInfo
from repro.obs.history import Row
from repro.simtest.linearizability import (
    CheckAborted,
    Op,
    check_linearizable,
    model_for,
)
from repro.util.rng import split_rng

_SEQ = struct.Struct(">Q")
_INDEX = struct.Struct(">I")


class Divergence:
    """One implementation-vs-model disagreement."""

    __slots__ = ("oracle", "kind", "at", "detail")

    def __init__(self, oracle: str, kind: str, at: float, detail: str) -> None:
        self.oracle = oracle
        self.kind = kind
        self.at = at
        self.detail = detail

    @property
    def signature(self) -> Tuple[str, str]:
        return (self.oracle, self.kind)

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "kind": self.kind, "at": self.at,
                "detail": self.detail}


# ----------------------------------------------------------- linearizability


def replay(history: Iterable[Row], accounts: Mapping[str, int],
           ) -> List[Tuple[Tuple[Any, ...], Optional[str], bool]]:
    """Replay recorded :class:`~repro.obs.history.History` rows through
    the Wing–Gong checker.

    Linearizability is compositional, so every object — each shared-object
    key, each tuple kind, the ledger — is checked on its own, against the
    model its kind (``obj[0]``) selects; ``accounts`` are the ledger's
    opening balances. Returns one ``(obj, problem, aborted)`` per object,
    in object order: ``problem`` is ``None`` when the object's history is
    linearizable, else the counterexample — or, when ``aborted``, why the
    search gave up without an answer.
    """
    by_object: Dict[Tuple[Any, ...], List[Op]] = {}
    for obj, client, op, args, invoke, response, result in history:
        by_object.setdefault(obj, []).append(
            Op(client, op, args, invoke, response, result)
        )
    verdicts = []
    for obj, ops in sorted(by_object.items()):
        try:
            problem = check_linearizable(ops, model_for(obj[0], accounts))
            verdicts.append((obj, problem, False))
        except CheckAborted as aborted:
            verdicts.append((obj, str(aborted), True))
    return verdicts


def linearizability_divergences(history: Iterable[Row],
                                accounts: Mapping[str, int], now: float,
                                stats: Dict[str, int]) -> List[Divergence]:
    """A simtest world's reading of :func:`replay`: a counterexample is a
    divergence, an exhausted search budget is only counted."""
    divergences = []
    for obj, problem, aborted in replay(history, accounts):
        stats["lin_objects"] += 1
        if aborted:
            stats["lin_aborted"] += 1
        elif problem is not None:
            divergences.append(Divergence(
                f"linearizability-{obj[0]}", "non-linearizable", now,
                f"object {obj}: {problem}",
            ))
    return divergences


# ----------------------------------------------------------------- delivery


class _PeerModel:
    """The abstract watermark + window machine from the reliable spec."""

    __slots__ = ("watermark", "window")

    def __init__(self) -> None:
        self.watermark = 0
        self.window: Set[int] = set()

    def step(self, seq: int, recv_window: int) -> bool:
        """Apply one DATA frame; returns whether it should deliver."""
        if seq <= self.watermark or seq in self.window:
            return False
        if seq > self.watermark + recv_window:
            return False
        self.window.add(seq)
        while self.watermark + 1 in self.window:
            self.watermark += 1
            self.window.discard(self.watermark)
        return True


class DeliveryOracle:
    """Lockstep model of reliable-transport delivery on the bulk stream.

    The harness wraps the receiving :class:`ReliableTransport`'s inner
    receiver: after every frame the model is stepped with the same frame
    and the receiver's per-peer dedup state (watermark and out-of-order
    window) must match the model's exactly, and a delivery must have
    happened iff the model says so. End-of-run accounting closes the loop:
    every sent message was delivered or given up, nothing was delivered
    twice, nothing undelivered is still pending.
    """

    def __init__(self, recv_window: int):
        self.recv_window = recv_window
        self.divergences: List[Divergence] = []
        self.sent: Set[int] = set()
        self.delivered: List[int] = []
        self.delivered_set: Set[int] = set()
        self.gave_up: Set[int] = set()
        self._models: Dict[Any, _PeerModel] = {}

    def note_sent(self, index: int) -> None:
        self.sent.add(index)

    def note_gave_up(self, payload: bytes) -> None:
        if len(payload) >= _INDEX.size:
            self.gave_up.add(_INDEX.unpack_from(payload)[0])

    def note_delivered(self, now: float, payload: bytes) -> None:
        index = _INDEX.unpack_from(payload)[0]
        if index not in self.sent:
            self._diverge(now, "phantom-delivery", f"index {index} never sent")
        if index in self.delivered_set:
            self._diverge(now, "duplicate-delivery", f"index {index}")
        self.delivered_set.add(index)
        self.delivered.append(index)

    def check_frame(self, now: float, source: Any, frame: bytes,
                    receiver: Any, deliveries_before: int) -> None:
        """Compare model and implementation after one inbound frame."""
        if len(frame) < 1 + _SEQ.size or frame[:1] != b"D":
            return
        seq = _SEQ.unpack_from(frame, 1)[0]
        if seq == 0:
            return  # broadcast frames are out of scope on the bulk stream
        model = self._models.setdefault(source, _PeerModel())
        should_deliver = model.step(seq, self.recv_window)
        did_deliver = len(self.delivered) > deliveries_before
        if did_deliver != should_deliver:
            self._diverge(
                now, "delivery-mismatch",
                f"seq {seq}: model says deliver={should_deliver}, "
                f"implementation delivered={did_deliver}",
            )
        state = receiver._recv.get(source)
        real = (state.watermark, set(state.window)) if state else (0, set())
        if real != (model.watermark, model.window):
            self._diverge(
                now, "state-mismatch",
                f"seq {seq}: model (wm={model.watermark}, "
                f"window={sorted(model.window)}) vs implementation "
                f"(wm={real[0]}, window={sorted(real[1])})",
            )

    def finish(self, now: float, sender: Any) -> None:
        if sender._pending:
            self._diverge(
                now, "timer-leak",
                f"{len(sender._pending)} retransmit entries pending after "
                "quiesce",
            )
        unresolved = self.sent - self.delivered_set - self.gave_up
        if unresolved:
            self._diverge(
                now, "lost-message",
                f"sent but neither delivered nor given up: "
                f"{sorted(unresolved)}",
            )
        stray = self.delivered_set - self.sent
        if stray:
            self._diverge(now, "phantom-delivery",
                          f"delivered but never sent: {sorted(stray)}")

    def _diverge(self, now: float, kind: str, detail: str) -> None:
        self.divergences.append(Divergence("delivery", kind, now, detail))


# ---------------------------------------------------------------- discovery


class _FaultWindow:
    __slots__ = ("start", "end", "nodes")

    def __init__(self, start: float, end: float,
                 nodes: Optional[Tuple[str, ...]]) -> None:
        self.start = start
        self.end = end
        self.nodes = nodes  # None = whole network


class DiscoveryOracle:
    """Ground truth for what discovery lookups may and must return.

    The harness reports every provide/withdraw (which it executes itself,
    so the oracle's truth is exact) and every fault window. For each lookup:

    * **may**: a result must be a service provided before the lookup
      completed and not withdrawn before it was issued (anything else is a
      phantom).
    * **must**: if no fault window overlapped the lookup and the provider
      was up throughout, every service advertised comfortably before the
      lookup was issued must appear.

    The final post-heal probe is held to exact-set convergence.
    """

    #: A service must have been advertised this long before a lookup for
    #: the "must find" obligation to apply (flood flight time plus slack).
    ADVERTISE_SLACK_S = 0.2

    def __init__(self) -> None:
        self.divergences: List[Divergence] = []
        self.provided_at: Dict[str, Tuple[float, str, str]] = {}  # sid -> (t, type, node)
        self.withdrawn_at: Dict[str, float] = {}
        self.fault_windows: List[_FaultWindow] = []

    # ------------------------------------------------------------ bookkeeping

    def note_provided(self, now: float, service_id: str, service_type: str,
                      node: str) -> None:
        self.provided_at[service_id] = (now, service_type, node)
        self.withdrawn_at.pop(service_id, None)

    def note_withdrawn(self, now: float, service_id: str) -> None:
        self.withdrawn_at.setdefault(service_id, now)

    def note_fault(self, start: float, end: float,
                   nodes: Optional[Tuple[str, ...]] = None) -> None:
        self.fault_windows.append(_FaultWindow(start, end, nodes))

    def _disturbed(self, start: float, end: float, node: str) -> bool:
        for window in self.fault_windows:
            if window.end < start or window.start > end:
                continue
            if window.nodes is None or node in window.nodes:
                return True
        return False

    def live_services(self, service_type: str, at: float) -> Set[str]:
        return {
            sid
            for sid, (t0, stype, _node) in self.provided_at.items()
            if stype == service_type and t0 <= at
            and not (sid in self.withdrawn_at and self.withdrawn_at[sid] <= at)
        }

    # ------------------------------------------------------------- judgement

    def check_lookup(self, issued: float, completed: float,
                     service_type: str, results: List[str],
                     exact: bool = False) -> None:
        seen = set(results)
        for sid in seen:
            known = self.provided_at.get(sid)
            if known is None or known[0] > completed:
                self._diverge(completed, "phantom-service",
                              f"{sid!r} returned but never provided")
                continue
            withdrawn = self.withdrawn_at.get(sid)
            if withdrawn is not None and withdrawn < issued:
                self._diverge(
                    completed, "stale-service",
                    f"{sid!r} withdrawn at {withdrawn:.3f} but returned by a "
                    f"lookup issued at {issued:.3f}",
                )
        guard = issued - self.ADVERTISE_SLACK_S
        for sid in self.live_services(service_type, guard):
            withdrawn = self.withdrawn_at.get(sid)
            if withdrawn is not None and withdrawn <= completed:
                continue  # withdrawn mid-lookup: either outcome is legal
            node = self.provided_at[sid][2]
            if self._disturbed(guard, completed, node):
                if not exact:
                    continue
            if sid not in seen:
                kind = "convergence-failure" if exact else "missed-service"
                self._diverge(
                    completed, kind,
                    f"{sid!r} (provided {self.provided_at[sid][0]:.3f}, "
                    f"type {service_type!r}) missing from lookup at "
                    f"{issued:.3f} -> {sorted(seen)}",
                )
        if exact:
            expected = self.live_services(service_type, guard)
            extras = seen - expected
            if extras:
                self._diverge(
                    completed, "convergence-failure",
                    f"post-heal lookup returned unexpected {sorted(extras)}",
                )

    def _diverge(self, now: float, kind: str, detail: str) -> None:
        self.divergences.append(Divergence("discovery", kind, now, detail))


# ------------------------------------------------------------------- ledger


class LedgerOracle:
    """Lockstep replica of the idempotent transfer ledger."""

    def __init__(self, accounts: Dict[str, int]):
        self.divergences: List[Divergence] = []
        self.balances = dict(accounts)
        self.applied: Set[str] = set()
        self.acked: Set[str] = set()
        self._initial_total = sum(accounts.values())

    def apply_transfer(self, now: float, txid: str, src: str, dst: str,
                       amount: int, real: Any) -> None:
        """Step the model with the same call the real ledger just served."""
        if txid not in self.applied:
            self.applied.add(txid)
            self.balances[src] -= amount
            self.balances[dst] += amount
        if real.balances != self.balances or real.applied != self.applied:
            self._diverge(
                now, "state-mismatch",
                f"after {txid}: implementation balances {real.balances} / "
                f"{len(real.applied)} applied vs model {self.balances} / "
                f"{len(self.applied)} applied",
            )

    def note_acked(self, txid: str) -> None:
        self.acked.add(txid)

    def finish(self, now: float, real: Any) -> None:
        if sum(real.balances.values()) != self._initial_total:
            self._diverge(
                now, "conservation",
                f"total {sum(real.balances.values())} != "
                f"{self._initial_total}",
            )
        unapplied = self.acked - real.applied
        if unapplied:
            self._diverge(now, "acked-not-applied",
                          f"acked but missing from ledger: {sorted(unapplied)}")

    def _diverge(self, now: float, kind: str, detail: str) -> None:
        self.divergences.append(Divergence("ledger", kind, now, detail))


# -------------------------------------------------------------------- milan


#: Variables the generated fleets may measure.
_MILAN_VARIABLES = ("heart_rate", "blood_pressure", "oxygen_saturation",
                    "motion")


class MilanOracle:
    """Checks the bitmask feasible-set search against the reference spec."""

    def __init__(self) -> None:
        self.divergences: List[Divergence] = []
        self.checked = 0

    def check_fleet(self, now: float, fleet_seed: int) -> None:
        rng = split_rng(fleet_seed, "simtest.fleet")
        sensors = []
        for j in range(rng.randint(4, 9)):
            variables = rng.sample(_MILAN_VARIABLES, rng.randint(1, 3))
            sensors.append(SensorInfo(
                sensor_id=f"s{j}",
                reliabilities={
                    v: round(rng.uniform(0.5, 0.99), 3) for v in variables
                },
            ))
        wanted = rng.sample(_MILAN_VARIABLES, rng.randint(1, 3))
        requirements = {v: round(rng.uniform(0.6, 0.999), 3) for v in wanted}
        max_sets = rng.choice((4, 256))
        fast = minimal_feasible_sets(sensors, requirements, max_sets=max_sets)
        reference = minimal_feasible_sets_reference(
            sensors, requirements, max_sets=max_sets
        )
        self.checked += 1
        if fast != reference:
            self.divergences.append(Divergence(
                "milan", "feasible-set-mismatch", now,
                f"fleet seed {fleet_seed}: fast "
                f"{[sorted(found) for found in fast]} != reference "
                f"{[sorted(found) for found in reference]}",
            ))
