"""QoS contracts: agreed terms plus runtime compliance tracking.

When discovery binds a consumer to a supplier, the match terms become a
contract. The contract watches a sliding window of delivery observations and
emits ``"violated"`` / ``"repaired"`` events as compliance changes — the
hook the degradation manager (Section 3.4's fault-tolerance requirement)
reacts to.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import ConfigurationError
from repro.util.events import EventEmitter


class ContractTerms:
    """What the supplier agreed to deliver.

    Attributes:
        min_success_rate: floor on the windowed fraction of successful
            deliveries.
        max_mean_latency_s: ceiling on the windowed mean delivery latency
            (None = unconstrained).
        window: number of recent observations considered.
        min_observations: compliance is not judged until this many
            observations arrive (avoids flapping on startup).
    """

    __slots__ = ("min_success_rate", "max_mean_latency_s", "window",
                 "min_observations")

    def __init__(self, min_success_rate: float = 0.9,
                 max_mean_latency_s: Optional[float] = None, window: int = 20,
                 min_observations: int = 5) -> None:
        self.min_success_rate = min_success_rate
        self.max_mean_latency_s = max_mean_latency_s
        self.window = window
        self.min_observations = min_observations
        if not 0.0 <= self.min_success_rate <= 1.0:
            raise ConfigurationError(
                f"min success rate must be in [0,1], got {self.min_success_rate!r}"
            )
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window!r}")
        if not 0 < self.min_observations <= self.window:
            raise ConfigurationError(
                f"min_observations must be in (0, window], got {self.min_observations!r}"
            )
        if self.max_mean_latency_s is not None and self.max_mean_latency_s <= 0:
            raise ConfigurationError(
                f"max mean latency must be positive, got {self.max_mean_latency_s!r}"
            )


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
        terms: ContractTerms = ContractTerms(),
    ):
        self.contract_id = contract_id
        self.supplier_id = supplier_id
        self.terms = terms
        self.events = EventEmitter()
        # (success, latency) observations, newest last.
        self._observations: Deque[Tuple[bool, float]] = deque(maxlen=terms.window)
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
        if len(self._observations) < self.terms.min_observations:
            return None
        return sum(1 for ok, _lat in self._observations if ok) / len(self._observations)

    def mean_latency(self) -> Optional[float]:
        successful = [lat for ok, lat in self._observations if ok]
        if len(self._observations) < self.terms.min_observations or not successful:
            return None
        return sum(successful) / len(successful)

    def _compliant(self) -> Optional[bool]:
        """True/False once enough observations exist, else None."""
        rate = self.success_rate()
        if rate is None:
            return None
        if rate < self.terms.min_success_rate:
            return False
        if self.terms.max_mean_latency_s is not None:
            mean = self.mean_latency()
            if mean is None or mean > self.terms.max_mean_latency_s:
                return False
        return True

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
