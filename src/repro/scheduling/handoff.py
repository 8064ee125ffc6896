"""Transaction handoff for departing suppliers.

Section 3.7: "if a service is about to be discontinued (e.g., a mobile
service moving out of range), then the transactions involving it should be
either completed, or transferred to different services matching the
constraints. These interactions can be scheduled with high priority, and
possibly allocated more bandwidth."

The :class:`HandoffManager` watches the physical distance between each
active transaction's consumer and supplier nodes. When a supplier crosses
``warn_fraction`` of radio range, the manager asks the transaction manager
to transfer it to another matching supplier — *before* the link breaks.
Experiment E7 runs the same mobile scenario with the manager on and off.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import ConfigurationError
from repro.netsim.network import Network
from repro.transactions.manager import TransactionManager
from repro.transactions.transaction import Transaction
from repro.util.events import EventEmitter


class HandoffManager:
    """Proactive, position-aware transaction migration."""

    def __init__(
        self,
        network: Network,
        manager: TransactionManager,
        consumer_node_id: str,
        warn_fraction: float = 0.8,
        check_interval_s: float = 1.0,
    ):
        if not 0.0 < warn_fraction <= 1.0:
            raise ConfigurationError(
                f"warn fraction must be in (0, 1], got {warn_fraction!r}"
            )
        self.network = network
        self.manager = manager
        self.consumer_node_id = consumer_node_id
        self.warn_fraction = warn_fraction
        self.check_interval_s = check_interval_s
        self.events = EventEmitter()
        self.handoffs_initiated = 0
        self._in_progress: Set[str] = set()
        self._timer = network.sim.schedule(check_interval_s, self._check)
        manager.events.on("transferred", self._on_transferred)

    # ------------------------------------------------------------ monitoring

    def _range_m(self) -> float:
        return self.network.medium.profile.range_m

    def _supplier_node_id(self, transaction: Transaction) -> Optional[str]:
        provider = transaction.supplier.provider
        node_id = provider.split(":", 1)[0]
        return node_id if node_id in self.network else None

    def _check(self) -> None:
        consumer = self.network.node(self.consumer_node_id)
        threshold = self.warn_fraction * self._range_m()
        for transaction in self.manager.transactions():
            if not transaction.active:
                continue
            if transaction.transaction_id in self._in_progress:
                continue
            supplier_id = self._supplier_node_id(transaction)
            if supplier_id is None:
                continue
            supplier = self.network.node(supplier_id)
            if not supplier.alive:
                continue
            if consumer.distance_to(supplier) >= threshold:
                self._initiate(transaction)
        self._timer = self.network.sim.schedule(self.check_interval_s, self._check)

    # -------------------------------------------------------------- handoff

    def _initiate(self, transaction: Transaction) -> None:
        self.handoffs_initiated += 1
        self._in_progress.add(transaction.transaction_id)
        self.events.emit("handoff_started", transaction)
        self.manager.request_transfer(transaction)

    def _on_transferred(self, transaction: Transaction, old_supplier: str) -> None:
        if transaction.transaction_id not in self._in_progress:
            return
        self._in_progress.discard(transaction.transaction_id)
        self.events.emit("handoff_completed", transaction, old_supplier)

    def stop(self) -> None:
        self._timer.cancel()
