"""QoS contracts: fixed terms plus runtime compliance tracking.

When discovery binds a consumer to a supplier, the binding becomes a
contract. The contract watches a sliding window of delivery observations,
holds the supplier to a success-rate floor over it, and emits
``"violated"`` / ``"repaired"`` events as compliance changes — the hook
the degradation manager (Section 3.4's fault-tolerance requirement) reacts
to.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.util.events import EventEmitter

#: Floor on the windowed fraction of successful deliveries.
MIN_SUCCESS_RATE = 0.9
#: Recent observations a contract judges.
WINDOW = 20
#: Compliance is not judged until this many observations arrive (avoids
#: flapping on startup).
MIN_OBSERVATIONS = 5


class QoSContract:
    """A live contract between one consumer and one supplier.

    Events (via :attr:`events`):

    * ``"violated"`` (contract) — compliance transitioned to violated.
    * ``"repaired"`` (contract) — compliance restored.
    """

    def __init__(
        self,
        contract_id: str,
        supplier_id: str,
    ):
        self.contract_id = contract_id
        self.supplier_id = supplier_id
        self.events = EventEmitter()
        # (success, latency) observations, newest last.
        self._observations: Deque[Tuple[bool, float]] = deque(maxlen=WINDOW)
        self._violated = False
        self.total_observations = 0

    # ------------------------------------------------------------ observing

    def observe(self, latency_s: float, success: bool = True) -> None:
        """Record one delivery and re-evaluate compliance."""
        self._observations.append((success, max(0.0, latency_s)))
        self.total_observations += 1
        self._evaluate()

    def observe_failure(self) -> None:
        """Record a delivery that never happened (timeout, supplier down)."""
        self.observe(latency_s=0.0, success=False)

    # ------------------------------------------------------------ evaluating

    @property
    def violated(self) -> bool:
        return self._violated

    def success_rate(self) -> Optional[float]:
        if len(self._observations) < MIN_OBSERVATIONS:
            return None
        return sum(1 for ok, _lat in self._observations if ok) / len(self._observations)

    def _compliant(self) -> Optional[bool]:
        """True/False once enough observations exist, else None."""
        rate = self.success_rate()
        if rate is None:
            return None
        return rate >= MIN_SUCCESS_RATE

    def _evaluate(self) -> None:
        compliant = self._compliant()
        if compliant is None:
            return
        if not compliant and not self._violated:
            self._violated = True
            self.events.emit("violated", self)
        elif compliant and self._violated:
            self._violated = False
            self.events.emit("repaired", self)

    def reset_window(self) -> None:
        """Forget past observations (used after rebinding to a new supplier)."""
        self._observations.clear()
        if self._violated:
            self._violated = False
            self.events.emit("repaired", self)
