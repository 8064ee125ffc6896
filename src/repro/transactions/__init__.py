"""Transactions (Section 3.6): how suppliers and consumers interact.

The paper uses "transaction" for the middleware-established interaction
between a service supplier and a service consumer, classified as
**continuous**, **intermittent with some prediction**, or **on demand**
(:mod:`repro.transactions.transaction`), established by matching
specifications including QoS constraints
(:mod:`repro.transactions.manager`).

The interaction technologies the literature review enumerates are each
implemented over the common transport abstraction:

* RPC with synchronous futures and asynchronous one-ways
  (:mod:`repro.transactions.rpc`),
* message-oriented middleware with queues and redelivery
  (:mod:`repro.transactions.messaging`),
* event-based publish/subscribe with topic wildcards
  (:mod:`repro.transactions.pubsub`),
* Linda-style tuple spaces (:mod:`repro.transactions.tuplespace`),
* distributed shared objects with invalidation-based caching
  (:mod:`repro.transactions.sharedobjects`),
* mobile software agents that travel to the data
  (:mod:`repro.transactions.agents`),

and Section 3.9's bridge between two of them, RPC callers to pub/sub
consumers (:mod:`repro.transactions.bridge`).
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "AgentHost": "repro.transactions.agents",
    "MobileAgent": "repro.transactions.agents",
    "TransactionManager": "repro.transactions.manager",
    "MessageBroker": "repro.transactions.messaging",
    "MessagingClient": "repro.transactions.messaging",
    "PubSubBroker": "repro.transactions.pubsub",
    "PubSubClient": "repro.transactions.pubsub",
    "RpcEndpoint": "repro.transactions.rpc",
    "SharedObjectCache": "repro.transactions.sharedobjects",
    "SharedObjectHost": "repro.transactions.sharedobjects",
    "Transaction": "repro.transactions.transaction",
    "TransactionKind": "repro.transactions.transaction",
    "TransactionState": "repro.transactions.transaction",
    "TupleSpaceClient": "repro.transactions.tuplespace",
    "TupleSpaceServer": "repro.transactions.tuplespace",
})
