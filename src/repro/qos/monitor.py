"""Runtime QoS monitoring and graceful degradation.

Section 3.4: "All QoS characteristics should provide to the middleware tools
to deal with fault tolerance to provide graceful degradation of the system
in the presence of failures."

The :class:`DegradationManager` keeps a consumer bound to the best currently
feasible supplier: when the active supplier's contract is violated (or the
supplier disappears), it re-runs QoS matching over the surviving candidates
and rebinds, relaxing the consumer's hard floors in fixed steps if
nothing feasible remains — degrading gracefully instead of failing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.qos.contract import QoSContract
from repro.qos.spec import ConsumerQoS, MatchScore, SupplierQoS, rank_matches
from repro.util.events import EventEmitter
from repro.util.ids import IdGenerator

#: (supplier key, supplier QoS, distance) triples, as discovery provides.
Candidate = Tuple[str, SupplierQoS, Optional[float]]
CandidatesProvider = Callable[[], Sequence[Candidate]]

#: One degradation level lowers the consumer's reliability and
#: availability floors by these amounts and multiplies its latency
#: ceiling by this factor; ``MAX_DEGRADATION_LEVEL`` levels at most.
RELIABILITY_STEP = 0.1
AVAILABILITY_STEP = 0.1
LATENCY_FACTOR = 2.0
MAX_DEGRADATION_LEVEL = 3


class QoSMonitor:
    """Aggregates delivered QoS across many contracts (reporting surface)."""

    def __init__(self):
        self.contracts: Dict[str, QoSContract] = {}
        self.events = EventEmitter()

    def register(self, contract: QoSContract) -> None:
        self.contracts[contract.contract_id] = contract
        contract.events.on("violated", lambda c: self.events.emit("violated", c))
        contract.events.on("repaired", lambda c: self.events.emit("repaired", c))

    def violated_contracts(self) -> List[QoSContract]:
        return [c for c in self.contracts.values() if c.violated]

    def system_success_rate(self) -> Optional[float]:
        rates = [c.success_rate() for c in self.contracts.values()]
        known = [r for r in rates if r is not None]
        if not known:
            return None
        return sum(known) / len(known)


class DegradationManager:
    """Keeps one consumer bound to the best feasible supplier, degrading
    its requirements stepwise when the world gets worse.

    Events (via :attr:`events`):

    * ``"bound"`` (supplier_key, MatchScore) — new binding chosen.
    * ``"degraded"`` (level) — requirements were relaxed to level ``level``.
    * ``"unsatisfiable"`` () — nothing feasible even fully degraded.
    """

    def __init__(
        self,
        consumer: ConsumerQoS,
        candidates: CandidatesProvider,
    ):
        self.base_consumer = consumer
        self.candidates = candidates
        self.events = EventEmitter()
        self._ids = IdGenerator("contract")
        self.level = 0
        self.current_supplier: Optional[str] = None
        self.current_score: Optional[MatchScore] = None
        self.contract: Optional[QoSContract] = None
        self.rebinds = 0

    # ------------------------------------------------------------ requirements

    def effective_consumer(self) -> ConsumerQoS:
        """The consumer QoS relaxed to the current degradation level."""
        if self.level == 0:
            return self.base_consumer
        reliability = max(
            0.0, self.base_consumer.min_reliability - self.level * RELIABILITY_STEP
        )
        availability = max(
            0.0,
            self.base_consumer.min_availability - self.level * AVAILABILITY_STEP,
        )
        latency = self.base_consumer.max_latency_s
        if latency is not None:
            latency = latency * (LATENCY_FACTOR**self.level)
        base = self.base_consumer
        return ConsumerQoS(
            min_reliability=reliability,
            min_availability=availability,
            max_latency_s=latency,
            spatial=base.spatial,
            require_encryption=base.require_encryption,
            password=base.password,
        )

    # --------------------------------------------------------------- binding

    def bind(self) -> Optional[str]:
        """(Re)select the best feasible supplier, degrading as needed.

        Returns the chosen supplier key, or None (after emitting
        ``"unsatisfiable"``) when even fully degraded requirements match
        nothing.
        """
        available = list(self.candidates())
        while True:
            ranked = rank_matches(
                [(key, qos, dist) for key, qos, dist in available],
                self.effective_consumer(),
            )
            if ranked:
                key, score = ranked[0]
                self._bind_to(key, score)
                return key
            if self.level >= MAX_DEGRADATION_LEVEL:
                self.current_supplier = None
                self.current_score = None
                self.contract = None
                self.events.emit("unsatisfiable")
                return None
            self.level += 1
            self.events.emit("degraded", self.level)

    def _bind_to(self, key: str, score: MatchScore) -> None:
        if key != self.current_supplier:
            self.rebinds += 1
        self.current_supplier = key
        self.current_score = score
        contract = QoSContract(self._ids.next(), key)
        contract.events.on("violated", self._on_violation)
        self.contract = contract
        self.events.emit("bound", key, score)

    def _on_violation(self, _contract: QoSContract) -> None:
        self.bind()

    # ------------------------------------------------------------- observing

    def observe(self, latency_s: float, success: bool = True) -> None:
        """Feed a delivery observation for the current binding."""
        if self.contract is not None:
            self.contract.observe(latency_s, success)

    def supplier_lost(self, key: str) -> None:
        """Signal that a supplier vanished; rebinds if it was the active one."""
        if key == self.current_supplier:
            self.bind()

    def delivered_quality(self) -> float:
        """Current match score total, or 0.0 when unbound — the E4 metric."""
        return self.current_score.total if self.current_score is not None else 0.0
