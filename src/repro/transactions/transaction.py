"""The transaction abstraction.

Section 3.6: "We use the word transaction to denote this interaction
between a service supplier and a service consumer. ... Transactions can be
classified as continuous, intermittent with some prediction, or on demand
scheduling."

A :class:`Transaction` is the middleware-visible record of one such
interaction: who talks to whom, in which mode, under which QoS contract,
and in which lifecycle state. The :class:`TransactionManager` creates and
drives them; the scheduler and handoff manager reorder and migrate them.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from repro.discovery.description import ServiceDescription
from repro.errors import TransactionError
from repro.qos.contract import QoSContract
from repro.util.events import EventEmitter


class TransactionKind(enum.Enum):
    """The paper's three transaction classes."""

    CONTINUOUS = "continuous"  # periodic data flow (sensor streams)
    INTERMITTENT = "intermittent"  # predicted episodes (scheduled bursts)
    ON_DEMAND = "on_demand"  # single request/response


class TransactionState(enum.Enum):
    PENDING = "pending"  # created, supplier not yet engaged
    ACTIVE = "active"  # data flowing
    SUSPENDED = "suspended"  # paused (e.g. during handoff)
    TRANSFERRED = "transferred"  # moved to a different supplier
    COMPLETED = "completed"
    ABORTED = "aborted"


#: Legal lifecycle moves.
_ALLOWED = {
    TransactionState.PENDING: {TransactionState.ACTIVE, TransactionState.ABORTED},
    TransactionState.ACTIVE: {
        TransactionState.SUSPENDED,
        TransactionState.COMPLETED,
        TransactionState.ABORTED,
        TransactionState.TRANSFERRED,
    },
    TransactionState.SUSPENDED: {
        TransactionState.ACTIVE,
        TransactionState.TRANSFERRED,
        TransactionState.ABORTED,
    },
    TransactionState.TRANSFERRED: {TransactionState.ACTIVE, TransactionState.ABORTED},
    TransactionState.COMPLETED: set(),
    TransactionState.ABORTED: set(),
}

DataCallback = Callable[[Any, float], None]  # (value, latency_s)


class TransactionSpec:
    """Static parameters of a transaction."""

    __slots__ = ("kind", "operation", "interval_s", "predicted_times")

    def __init__(self, kind: TransactionKind, operation: str = "read",
                 interval_s: float = 1.0, predicted_times: tuple = ()) -> None:
        self.kind = kind
        self.operation = operation
        self.interval_s = interval_s  # CONTINUOUS: data period
        # INTERMITTENT: absolute activation times
        self.predicted_times = predicted_times


class Transaction:
    """One supplier-consumer interaction, with a guarded state machine.

    Events (via :attr:`events`): ``"state_changed"`` (transaction, old, new)
    and ``"data"`` (transaction, value, latency_s).
    """

    def __init__(
        self,
        transaction_id: str,
        spec: TransactionSpec,
        supplier: ServiceDescription,
        on_data: Optional[DataCallback] = None,
        contract: Optional[QoSContract] = None,
    ):
        self.transaction_id = transaction_id
        self.spec = spec
        self.supplier = supplier
        self.on_data = on_data
        self.contract = contract
        self.state = TransactionState.PENDING
        self.events = EventEmitter()
        self.deliveries = 0
        self.failures = 0
        self.completed_at: Optional[float] = None
        self.transfers = 0

    # ---------------------------------------------------------------- state

    def transition(self, new_state: TransactionState) -> None:
        if new_state not in _ALLOWED[self.state]:
            raise TransactionError(
                f"transaction {self.transaction_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        old, self.state = self.state, new_state
        self.events.emit("state_changed", self, old, new_state)

    @property
    def finished(self) -> bool:
        return self.state in (TransactionState.COMPLETED, TransactionState.ABORTED)

    @property
    def active(self) -> bool:
        return self.state == TransactionState.ACTIVE

    # ----------------------------------------------------------------- data

    def deliver(self, value: Any, latency_s: float) -> None:
        """Record a successful data delivery."""
        self.deliveries += 1
        if self.contract is not None:
            self.contract.observe(latency_s, success=True)
        if self.on_data is not None:
            self.on_data(value, latency_s)
        self.events.emit("data", self, value, latency_s)

    def delivery_failed(self) -> None:
        self.failures += 1
        if self.contract is not None:
            self.contract.observe_failure()

    def retarget(self, new_supplier: ServiceDescription) -> None:
        """Point the transaction at a different supplier (handoff)."""
        self.supplier = new_supplier
        self.transfers += 1

    def __repr__(self) -> str:
        return (
            f"<Transaction {self.transaction_id} {self.spec.kind.value} "
            f"{self.state.value} supplier={self.supplier.service_id}>"
        )
