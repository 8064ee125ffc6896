"""System-wide event management (Section 3.10).

"Ideally, the middleware should react to events from all system components
(services suppliers, services consumers and network)."

The :class:`SystemEventBus` is that reaction point: it attaches to any mix
of components — simulated nodes, registries, transaction managers, QoS
contracts, MiLAN instances — normalizes their event streams
onto one dot-separated topic tree, and lets applications subscribe with
the same wildcard patterns publish/subscribe uses:

=========================  =============================================
topic                      payload
=========================  =============================================
``node.crashed``           {"node": id}
``node.recovered``         {"node": id}
``node.depleted``          {"node": id}
``service.registered``     {"service": id, "type": t}
``service.unregistered``   {"service": id, "type": t}
``service.expired``        {"service": id, "type": t}
``qos.violated``           {"contract": id, "supplier": id}
``qos.repaired``           {"contract": id, "supplier": id}
``txn.established``        {"txn": id, "supplier": id}
``txn.transferred``        {"txn": id, "from": id, "to": id}
``txn.completed``          {"txn": id}
``txn.aborted``            {"txn": id}
``milan.state_changed``    {"from": s, "to": s}
``milan.reconfigured``     {"active": [ids], "lifetime_s": x}
``milan.infeasible``       {"state": s}
=========================  =============================================

Every event is kept in :attr:`SystemEventBus.history`, so a topic's count
is ``len(bus.events_matching("node.crashed"))``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.core.milan import Milan
from repro.discovery.registry import RegistryServer
from repro.netsim.network import Network
from repro.qos.contract import QoSContract
from repro.transactions.manager import TransactionManager
from repro.transactions.pubsub import topic_matches

Handler = Callable[[str, Dict[str, Any]], None]


class SystemEventBus:
    """Aggregates component events onto one wildcard-subscribable stream."""

    def __init__(self):
        self._subscribers: List[Tuple[str, Handler]] = []
        self.history: List[Tuple[str, Dict[str, Any]]] = []

    # -------------------------------------------------------------- emitting

    def publish(self, topic: str, payload: Dict[str, Any]) -> None:
        """Publish one system event (components call this via the watchers)."""
        self.history.append((topic, payload))
        for pattern, handler in list(self._subscribers):
            if topic_matches(pattern, topic):
                handler(topic, payload)

    def subscribe(self, pattern: str, handler: Handler) -> None:
        """Subscribe with a pub/sub topic pattern (``*``, ``#`` wildcards)."""
        self._subscribers.append((pattern, handler))

    def events_matching(self, pattern: str) -> List[Tuple[str, Dict[str, Any]]]:
        return [(t, p) for t, p in self.history if topic_matches(pattern, t)]

    # -------------------------------------------------------------- watchers

    def watch_network(self, network: Network) -> None:
        """node.crashed / node.recovered / node.depleted for every node."""
        for node in network.nodes():
            node.events.on(
                "crashed",
                lambda n: self.publish("node.crashed", {"node": n.node_id}),
            )
            node.events.on(
                "recovered",
                lambda n: self.publish("node.recovered", {"node": n.node_id}),
            )
            node.events.on(
                "depleted",
                lambda n: self.publish("node.depleted", {"node": n.node_id}),
            )

    def watch_registry(self, server: RegistryServer) -> None:
        def service_event(kind: str):
            return lambda d: self.publish(
                f"service.{kind}", {"service": d.service_id, "type": d.service_type}
            )

        server.events.on("registered", service_event("registered"))
        server.events.on("unregistered", service_event("unregistered"))
        server.events.on("expired", service_event("expired"))

    def watch_contract(self, contract: QoSContract) -> None:
        contract.events.on(
            "violated",
            lambda c: self.publish(
                "qos.violated",
                {"contract": c.contract_id, "supplier": c.supplier_id},
            ),
        )
        contract.events.on(
            "repaired",
            lambda c: self.publish(
                "qos.repaired",
                {"contract": c.contract_id, "supplier": c.supplier_id},
            ),
        )

    def watch_transactions(self, manager: TransactionManager) -> None:
        manager.events.on(
            "established",
            lambda t: self.publish(
                "txn.established",
                {"txn": t.transaction_id, "supplier": t.supplier.service_id},
            ),
        )
        manager.events.on(
            "transferred",
            lambda t, old: self.publish(
                "txn.transferred",
                {"txn": t.transaction_id, "from": old,
                 "to": t.supplier.service_id},
            ),
        )
        manager.events.on(
            "completed",
            lambda t: self.publish("txn.completed", {"txn": t.transaction_id}),
        )
        manager.events.on(
            "aborted",
            lambda t: self.publish("txn.aborted", {"txn": t.transaction_id}),
        )

    def watch_milan(self, milan: Milan) -> None:
        milan.events.on(
            "state_changed",
            lambda old, new: self.publish(
                "milan.state_changed", {"from": old, "to": new}
            ),
        )
        milan.events.on(
            "reconfigured",
            lambda config, score: self.publish(
                "milan.reconfigured",
                {"active": sorted(config.active_sensors),
                 "lifetime_s": score.lifetime_s},
            ),
        )
        milan.events.on(
            "infeasible",
            lambda state: self.publish("milan.infeasible", {"state": state}),
        )
