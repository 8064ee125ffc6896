"""Paradigm bridges and the middleware-to-middleware gateway.

Section 3.9's goal — interoperability "among multiple languages and/or
middleware platforms" — shows up in two forms here:

* :class:`CodecGateway` — a node standing between two transports whose
  parties speak *different wire formats* (e.g. a binary-codec sensor island
  and an SML-markup enterprise side). It decodes a message dict with one
  codec, re-encodes it with the other, and forwards per an address map.
  Semantic independence comes from the shared JSON-like value model,
  exactly the markup argument the paper makes.
* :class:`RpcEventBridge` / :class:`PubSubTupleBridge` — *paradigm*
  bridges: RPC callers reach publish/subscribe consumers, and events
  materialize as tuples for tuple-space readers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.interop.codec import get_codec
from repro.interop.frames import try_decode_dict
from repro.transactions.pubsub import PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.tuplespace import TupleSpaceClient
from repro.transport.base import Address, Transport, drop_malformed


class CodecGateway:
    """Bidirectional wire-format translation between two transports.

    Side A speaks the binary codec, side B SML markup. Like every protocol
    in the tree it carries message dicts: one arriving on a side is decoded
    with that side's codec and re-encoded with the other's.
    ``route_a_to_b`` maps source addresses seen on side A to destinations
    on side B (and vice versa for ``route_b_to_a``); unmapped
    sources fall back to the default peer, and traffic with no route is
    dropped and counted in ``dropped``. A payload that is no message dict
    in its side's codec is a counted drop (``malformed_frames``), never a
    raise through the event loop.
    """

    def __init__(
        self,
        side_a: Transport,
        side_b: Transport,
        default_b: Optional[Address] = None,
        default_a: Optional[Address] = None,
    ):
        self.side_a = side_a
        self.side_b = side_b
        self.codec_a = get_codec("binary")
        self.codec_b = get_codec("sml")
        self.route_a_to_b: Dict[str, Address] = {}
        self.route_b_to_a: Dict[str, Address] = {}
        self.default_b = default_b
        self.default_a = default_a
        self.forwarded_a_to_b = 0
        self.forwarded_b_to_a = 0
        self.dropped = 0
        self.malformed_frames = 0
        side_a.set_receiver(self._from_a)
        side_b.set_receiver(self._from_b)

    def map_a_to_b(self, source_on_a: Address, destination_on_b: Address) -> None:
        self.route_a_to_b[str(source_on_a)] = destination_on_b

    def map_b_to_a(self, source_on_b: Address, destination_on_a: Address) -> None:
        self.route_b_to_a[str(source_on_b)] = destination_on_a

    def _from_a(self, source: Address, payload: bytes) -> None:
        destination = self.route_a_to_b.get(str(source), self.default_b)
        if destination is None:
            self.dropped += 1
            return
        message = try_decode_dict(self.codec_a, payload)
        if message is None:
            drop_malformed(self)
            return
        self.forwarded_a_to_b += 1
        self.side_b.send(destination, self.codec_b.encode(message))

    def _from_b(self, source: Address, payload: bytes) -> None:
        destination = self.route_b_to_a.get(str(source), self.default_a)
        if destination is None:
            self.dropped += 1
            return
        message = try_decode_dict(self.codec_b, payload)
        if message is None:
            drop_malformed(self)
            return
        self.forwarded_b_to_a += 1
        self.side_a.send(destination, self.codec_a.encode(message))


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


class PubSubTupleBridge:
    """Materializes events as tuples: subscribers of one paradigm see
    producers of the other.

    Every event on ``pattern`` becomes the tuple
    ``("event", topic, event_value)`` in the tuple space, where Linda-style
    consumers can ``in_("event", None, None)`` it.
    """

    def __init__(self, pubsub: PubSubClient, space: TupleSpaceClient, pattern: str):
        self.pubsub = pubsub
        self.space = space
        self.pattern = pattern
        self.bridged = 0
        pubsub.subscribe(pattern, self._on_event)

    def _on_event(self, topic: str, event: Any) -> None:
        self.bridged += 1
        self.space.out("event", topic, event)
