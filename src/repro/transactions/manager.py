"""The transaction manager.

Section 3.6: "A transaction should be established by the middleware based
on matching specifications including QoS constraints."

:meth:`TransactionManager.establish` takes a discovery query (with consumer
QoS) and a :class:`TransactionSpec`; the manager looks the supplier up,
binds a QoS contract, and then *drives* the interaction over RPC:

* ``ON_DEMAND`` — one call, then the transaction completes;
* ``CONTINUOUS`` — a call every ``interval_s`` until stopped;
* ``INTERMITTENT`` — calls at the spec's predicted times.

When a supplier stops answering (:data:`FAILURE_THRESHOLD` consecutive
failures), the manager re-runs discovery and transfers the transaction to
the next best supplier — the §3.7 "completed, or transferred to different
services matching the constraints" behaviour — aborting only when no
feasible supplier remains.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Query
from repro.errors import ServiceNotFoundError
from repro.obs.tracing import NOOP_SPAN, TRACER, Span
from repro.qos.contract import QoSContract
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.transaction import (
    DataCallback,
    Transaction,
    TransactionKind,
    TransactionSpec,
    TransactionState,
)
from repro.transport.base import Address
from repro.util.events import EventEmitter
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

#: Consecutive failed calls after which a transaction moves to another
#: supplier.
FAILURE_THRESHOLD = 3


class DiscoveryService(Protocol):
    """Anything that can look services up (registry client, distributed
    agent, adaptive agent — they all expose this)."""

    def lookup(self, query: Query) -> Promise:
        ...


class TransactionManager:
    """Creates and drives transactions for one consumer node.

    Events (via :attr:`events`): ``"established"`` (transaction),
    ``"transferred"`` (transaction, old_supplier_id), ``"aborted"``
    (transaction), ``"completed"`` (transaction).
    """

    def __init__(
        self,
        rpc: RpcEndpoint,
        discovery: DiscoveryService,
        call_timeout_s: float = 1.0,
    ):
        self.rpc = rpc
        self.discovery = discovery
        self.call_timeout_s = call_timeout_s
        self.events = EventEmitter()
        self._ids = IdGenerator(f"txn:{rpc.transport.local_address}")
        self._transactions: Dict[str, Transaction] = {}
        self._queries: Dict[str, Query] = {}
        self._consecutive_failures: Dict[str, int] = {}
        # transaction id -> open root span covering the whole transaction
        self._txn_spans: Dict[str, Span] = {}

    # ------------------------------------------------------------ inspection

    def transactions(self) -> List[Transaction]:
        return list(self._transactions.values())

    def get(self, transaction_id: str) -> Optional[Transaction]:
        return self._transactions.get(transaction_id)

    def _now(self) -> float:
        return self.rpc.transport.scheduler.now()

    # ------------------------------------------------------------- establish

    def establish(
        self,
        query: Query,
        spec: TransactionSpec,
        on_data: Optional[DataCallback] = None,
    ) -> Promise:
        """Discover a supplier and start the transaction.

        Fulfills with the :class:`Transaction`; rejects with
        :class:`ServiceNotFoundError` if discovery finds nothing feasible.
        """
        promise: Promise = Promise()
        root: Any = NOOP_SPAN
        phase: Any = NOOP_SPAN
        if TRACER.enabled:
            root = TRACER.span(
                "txn.transaction",
                node=self.rpc.transport.local_address.node,
                service_type=query.service_type,
            )
            phase = TRACER.span("txn.establish", parent=root)
        with TRACER.activate(phase):
            self.discovery.lookup(query).on_settle(
                lambda settled: self._on_lookup(
                    settled, query, spec, on_data, promise, root, phase
                )
            )
        return promise

    def _on_lookup(
        self,
        settled: Promise,
        query: Query,
        spec: TransactionSpec,
        on_data: Optional[DataCallback],
        promise: Promise,
        root: Any = NOOP_SPAN,
        phase: Any = NOOP_SPAN,
    ) -> None:
        if settled.rejected:
            phase.set_label(outcome="lookup-failed")
            phase.finish()
            root.set_label(state="failed")
            root.finish()
            promise.reject(settled.error())  # type: ignore[arg-type]
            return
        results: List[ServiceDescription] = settled.result()
        if not results:
            phase.set_label(outcome="no-supplier")
            phase.finish()
            root.set_label(state="failed")
            root.finish()
            promise.reject(
                ServiceNotFoundError(f"no supplier matched {query.service_type!r}")
            )
            return
        supplier = results[0]
        transaction_id = self._ids.next()
        contract = QoSContract(f"{transaction_id}-contract", supplier.service_id)
        transaction = Transaction(transaction_id, spec, supplier, on_data, contract)
        self._transactions[transaction_id] = transaction
        self._queries[transaction_id] = query
        self._consecutive_failures[transaction_id] = 0
        if isinstance(root, Span):
            root.set_label(txn=transaction_id, supplier=supplier.service_id)
            self._txn_spans[transaction_id] = root
        phase.set_label(outcome="established")
        phase.finish()
        transaction.transition(TransactionState.ACTIVE)
        self.events.emit("established", transaction)
        with TRACER.activate(root if isinstance(root, Span) else None):
            self._start_driving(transaction)
        promise.fulfill(transaction)

    # --------------------------------------------------------------- driving

    def _start_driving(self, transaction: Transaction) -> None:
        kind = transaction.spec.kind
        if kind == TransactionKind.ON_DEMAND:
            self._fire(transaction, complete_after=True)
        elif kind == TransactionKind.CONTINUOUS:
            self._schedule_next_period(transaction)
        elif kind == TransactionKind.INTERMITTENT:
            now = self._now()
            for when in transaction.spec.predicted_times:
                # Episodes whose predicted time passed while the transaction
                # was being established fire immediately rather than being
                # silently skipped.
                self.rpc.transport.scheduler.schedule(
                    max(0.0, when - now), self._fire_if_active, transaction, False
                )

    def _schedule_next_period(self, transaction: Transaction) -> None:
        self.rpc.transport.scheduler.schedule(
            transaction.spec.interval_s, self._periodic_fire, transaction
        )

    def _periodic_fire(self, transaction: Transaction) -> None:
        if transaction.finished:
            return
        if transaction.active:
            self._fire(transaction, complete_after=False)
        self._schedule_next_period(transaction)

    def _fire_if_active(self, transaction: Transaction, complete_after: bool) -> None:
        if transaction.active:
            self._fire(transaction, complete_after)

    def _fire(self, transaction: Transaction, complete_after: bool) -> None:
        started = self._now()
        destination = Address.parse(transaction.supplier.provider)
        delivery: Any = NOOP_SPAN
        if TRACER.enabled:
            delivery = TRACER.span(
                "txn.delivery",
                parent=self._txn_spans.get(transaction.transaction_id),
                node=self.rpc.transport.local_address.node,
                txn=transaction.transaction_id,
                operation=transaction.spec.operation,
                supplier=transaction.supplier.service_id,
            )
        with TRACER.activate(delivery):
            call = self.rpc.call(
                destination,
                transaction.spec.operation,
                timeout_s=self.call_timeout_s,
            )
        call.on_settle(
            lambda settled: self._on_call_settled(
                settled, transaction, started, complete_after, delivery
            )
        )

    def _on_call_settled(
        self,
        settled: Promise,
        transaction: Transaction,
        started: float,
        complete_after: bool,
        span: Any = NOOP_SPAN,
    ) -> None:
        span.set_label(status="ok" if settled.fulfilled else "failed")
        span.finish()
        if transaction.finished:
            return
        if settled.fulfilled:
            self._consecutive_failures[transaction.transaction_id] = 0
            transaction.deliver(settled.result(), self._now() - started)
            if complete_after:
                self._finish(transaction, TransactionState.COMPLETED)
            return
        transaction.delivery_failed()
        failures = self._consecutive_failures.get(transaction.transaction_id, 0) + 1
        self._consecutive_failures[transaction.transaction_id] = failures
        if failures >= FAILURE_THRESHOLD:
            self._attempt_transfer(transaction, complete_after)
        elif transaction.spec.kind != TransactionKind.CONTINUOUS:
            # One-shot fires (on-demand, intermittent episodes) retry
            # immediately; continuous streams are retried by their cadence.
            self._fire(transaction, complete_after)

    # -------------------------------------------------------------- transfer

    def request_transfer(self, transaction: Transaction) -> None:
        """Proactively move a transaction off its current supplier.

        Used by the handoff manager when the supplier is about to leave
        radio range (Section 3.7): the transaction is re-matched and
        retargeted before deliveries start failing.
        """
        self._attempt_transfer(transaction, complete_after=False)

    def _attempt_transfer(self, transaction: Transaction, complete_after: bool) -> None:
        """Re-discover and retarget; abort if the world has nothing left."""
        query = self._queries.get(transaction.transaction_id)
        if query is None or transaction.finished:
            return
        if transaction.state == TransactionState.ACTIVE:
            transaction.transition(TransactionState.SUSPENDED)

        transfer: Any = NOOP_SPAN
        if TRACER.enabled:
            transfer = TRACER.span(
                "txn.transfer",
                parent=self._txn_spans.get(transaction.transaction_id),
                node=self.rpc.transport.local_address.node,
                txn=transaction.transaction_id,
                old_supplier=transaction.supplier.service_id,
            )

        def on_relookup(settled: Promise) -> None:
            if transaction.finished:
                transfer.set_label(outcome="already-finished")
                transfer.finish()
                return
            candidates: List[ServiceDescription] = (
                settled.result() if settled.fulfilled else []
            )
            replacements = [
                c for c in candidates
                if c.service_id != transaction.supplier.service_id
            ]
            if not replacements:
                transfer.set_label(outcome="aborted")
                transfer.finish()
                self._finish(transaction, TransactionState.ABORTED)
                return
            old_supplier = transaction.supplier.service_id
            transfer.set_label(outcome="transferred",
                               new_supplier=replacements[0].service_id)
            transfer.finish()
            transaction.retarget(replacements[0])
            transaction.transition(TransactionState.TRANSFERRED)
            transaction.transition(TransactionState.ACTIVE)
            self._consecutive_failures[transaction.transaction_id] = 0
            if transaction.contract is not None:
                transaction.contract.reset_window()
            self.events.emit("transferred", transaction, old_supplier)
            if complete_after or transaction.spec.kind == TransactionKind.ON_DEMAND:
                self._fire(transaction, complete_after=True)

        with TRACER.activate(transfer):
            self.discovery.lookup(query).on_settle(on_relookup)

    # ------------------------------------------------------------- stopping

    def stop(self, transaction: Transaction) -> None:
        """Gracefully complete a transaction (continuous streams end here)."""
        if not transaction.finished:
            self._finish(transaction, TransactionState.COMPLETED)

    def abort(self, transaction: Transaction) -> None:
        if not transaction.finished:
            self._finish(transaction, TransactionState.ABORTED)

    def _finish(self, transaction: Transaction, state: TransactionState) -> None:
        transaction.transition(state)
        transaction.completed_at = self._now()
        root = self._txn_spans.pop(transaction.transaction_id, None)
        if root is not None:
            root.set_label(state=str(getattr(state, "value", state)))
            root.finish()
        event = "completed" if state == TransactionState.COMPLETED else "aborted"
        self.events.emit(event, transaction)
