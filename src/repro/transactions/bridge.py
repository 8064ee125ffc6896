"""The paradigm bridge: RPC callers reach publish/subscribe consumers.

Section 3.9's goal is interoperability "among multiple languages and/or
middleware platforms". :class:`RpcEventBridge` joins two of the
transaction paradigms: a caller in the RPC world publishes an event that
pub/sub subscribers receive (experiment E9b).
"""

from __future__ import annotations

from typing import Any

from repro.transactions.pubsub import PubSubClient
from repro.transactions.rpc import RpcEndpoint


class RpcEventBridge:
    """Lets RPC-world clients publish into the pub/sub world: it exposes
    ``publish(topic, event)`` on the given RPC endpoint and forwards each
    call to the event broker."""

    def __init__(self, rpc: RpcEndpoint, pubsub: PubSubClient):
        self.rpc = rpc
        self.pubsub = pubsub
        self.published = 0
        rpc.expose("publish", self._publish)

    def _publish(self, topic: str, event: Any) -> bool:
        self.pubsub.publish(topic, event)
        self.published += 1
        return True
