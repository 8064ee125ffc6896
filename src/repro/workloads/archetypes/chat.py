"""Chat/pubsub fan-out over the Linda tuple space.

One publisher ``out``\\ s a message tuple per request; three subscribers
``rd`` it (non-destructive, so one write serves every reader — the
tuple-space idiom for fan-out). A request is done when the slowest
subscriber has the message, so latency here is *fan-out completion* time.

The tuple-space protocol has no timeouts or retries (a lost frame wedges
the pending promise forever), so this archetype runs on the lossless
``IDEAL_RADIO`` profile; loss injected by a chaos mix shows up as
``pending`` requests, which is the honest accounting for this protocol.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.netsim import topology
from repro.netsim.energy import Battery
from repro.netsim.medium import IDEAL_RADIO
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.workloads.registry import Archetype, archetype

_TS_PORT = "ts"
_SUBSCRIBERS = ("leaf1", "leaf2", "leaf3")


@archetype(
    "chat_fanout",
    rate_rps=3.0,
    slo_target_s=0.5,
    description="pubsub fan-out over the tuple space: one out, three "
    "subscriber rds per message",
)
class ChatFanout(Archetype):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.network = topology.star(
            4, seed=seed, radio_profile=IDEAL_RADIO,
            battery_factory=lambda _nid: Battery(5.0),
        )
        self.fabric = SimFabric(self.network)
        self.server = TupleSpaceServer(self.fabric.endpoint("hub", _TS_PORT))
        space = Address("hub", _TS_PORT)
        self.publisher = TupleSpaceClient(
            self.fabric.endpoint("leaf0", f"{_TS_PORT}.pub"), space
        )
        self.subscribers = {
            leaf: TupleSpaceClient(
                self.fabric.endpoint(leaf, f"{_TS_PORT}.sub"), space
            )
            for leaf in _SUBSCRIBERS
        }

    def issue(self, index: int, size: int,
              done: Callable[[str], None]) -> None:
        obj = ("ts", f"m{index}")
        payload = "x" * min(size, 512)
        # rd is non-destructive and the tuple persists, so subscribers need
        # not be armed before the out lands — late rds match the stored
        # tuple. Confirmed out keeps publish behavior (and therefore wire
        # traffic) identical whether or not history is being recorded.
        out_promise = self.publisher.out("chat", index, payload, confirm=True)
        assert out_promise is not None
        self.record(obj, "publisher", "out", ("chat", index, payload),
                    out_promise)
        remaining = {"n": len(self.subscribers)}

        def one_received(settled) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                done("ok")

        for leaf, client in sorted(self.subscribers.items()):
            promise = client.rd("chat", index, None)
            self.record(obj, leaf, "rd", (), promise)
            promise.on_settle(one_received)

    def detail(self) -> Dict[str, object]:
        return {
            "tuples_stored": len(self.server),
            "outs": self.server.outs,
            "reads": self.server.reads,
        }

    def close(self) -> None:
        self.server.transport.close()
        self.publisher.transport.close()
        for client in self.subscribers.values():
            client.transport.close()
