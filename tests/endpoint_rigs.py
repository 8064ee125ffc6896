"""One rig per message endpoint: what the endpoint fuzz stands a class up in.

A rig is the endpoint under test inside a small live world, the address
its fuzzed frames claim to come from, one well-formed sample message per op
of the class's ``OPS`` table (``"$rid"`` stands for a request the endpoint
is really waiting on, one that op answers — made through the client's own
API and sent into the void, so only the fuzz answers it and the client's
own callbacks run on what it says), and a probe that drives one real
exchange through the endpoint. ``RIGS`` is keyed by class; a class that
behaves differently by role (a replica as backup and as primary) has one
builder per role.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import AttributeConstraint, Query
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.naming.locator import LocationClient, LocationServer
from repro.naming.names import LogicalName
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.qos.spec import ConsumerQoS, SupplierQoS
from repro.recovery.heartbeat import HeartbeatDetector
from repro.replication.client import GroupClient
from repro.replication.replica import (
    Outcome, ReplicaNode, StateMachine, deploy_group)
from repro.routing.datacentric import DIFFUSION_PORT, DataCentricAgent
from repro.transactions.agents import AgentHost, MobileAgent
from repro.transactions.messaging import MessageBroker, MessagingClient
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.endpoint import MessageEndpoint
from repro.transport.inmemory import InMemoryFabric
from repro.transport.simnet import SimFabric
from tests.replication_helpers import FAST

RAW = Address("raw", "x")  # a stranger: no rig has an endpoint there
VOID = Address("void", "x")  # nobody answers a request sent here

_PLAIN = (int, float, str, bool, type(None), dict, list, set, tuple, deque)


@dataclass
class Rig:
    endpoint: MessageEndpoint
    #: op -> a well-formed message; every op of the class's table has one.
    samples: Dict[str, Dict[str, Any]]
    #: Advance virtual time by this many seconds.
    advance: Callable[[float], None]
    #: One real exchange through the endpoint; True if it still serves.
    probe: Callable[[], bool]
    source: Address = RAW
    #: The request ``"$rid"`` stands for, if the endpoint awaits a reply...
    rid: Optional[str] = None
    #: Seconds after which such a request has given up (None: never).
    expires_s: Optional[float] = None
    #: State the plain-attribute snapshot cannot see (stores behind objects).
    stores: Callable[[], Any] = lambda: None
    #: ...or reply op -> the request awaiting that op, where it matters.
    rids: Dict[str, str] = field(default_factory=dict)

    def resolve(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """A copy of ``message`` with ``"$rid"`` replaced by the real id."""
        rid = self.rids.get(message.get("op"), self.rid)
        return {key: rid if value == "$rid" else value
                for key, value in message.items()}

    def awaited(self) -> set:
        """Every request id the rig holds open."""
        return {self.rid, *self.rids.values()} - {None}

    def message(self, op: str) -> Dict[str, Any]:
        """The sample for ``op``, resolved."""
        return self.resolve(self.samples[op])

    def state(self) -> Dict[str, Any]:
        """Public counters and stores — all but ``malformed_frames`` — and
        how many frames the endpoint has sent, as comparable values."""
        seen = {name: repr(value)
                for name, value in vars(self.endpoint).items()
                if name != "malformed_frames" and isinstance(value, _PLAIN)}
        seen["stores"] = repr(self.stores())
        seen["sent"] = self.endpoint.transport.sent_messages
        return seen


def _fabric():
    fabric = InMemoryFabric(latency_s=0.01)
    return fabric, lambda s: fabric.sim.run_until(fabric.sim.now() + s)


def _only(pending):
    (rid,) = pending
    return rid


def _held(client, server_attribute, ask):
    """``reply op -> rid`` of the requests ``ask()`` makes while the client
    believes its server lives at VOID: open until the fuzz answers them."""
    home = getattr(client, server_attribute)
    setattr(client, server_attribute, VOID)
    before = set(client._pending)
    ask()
    setattr(client, server_attribute, home)
    return {reply: rid for rid, (_promise, reply) in client._pending.items()
            if rid not in before}


class Stamper(MobileAgent):
    def visit(self, host):
        self.state.setdefault("seen", []).append(host.address.node)


class StrictMachine(StateMachine):
    """Knows ``set key value`` and ``get key`` and raises on anything else,
    the way :class:`~repro.replication.services.LedgerMachine` refuses an
    op it does not know: what a replica does with a well-typed command its
    application rejects is under the fuzz too. ``restore`` takes whatever
    it is given — snapshots are group-internal."""

    def __init__(self):
        self.applied = []

    def apply(self, name, args):
        if name != "set":
            raise ValueError(f"unknown op {name!r}")
        key, value = args
        self.applied.append([name, [key, value]])
        return Outcome(result=len(self.applied))

    def read(self, name, args):
        if name != "get":
            raise ValueError(f"unknown read {name!r}")
        (_key,) = args
        return len(self.applied)

    def snapshot(self):
        return list(self.applied)

    def restore(self, snapshot):
        self.applied = list(snapshot) if isinstance(snapshot, list) else []


DESC = ServiceDescription(
    "svc-1", "printer", "n5:svc", attributes={"floor": "2"},
    qos=SupplierQoS(reliability=0.9, battery_powered=True,
                    battery_fraction=0.5, properties={"var:hr": "0.8"}),
    position=(1.0, 2.0), interface_markup="<print/>")
QUERY = Query("printer", (AttributeConstraint("floor", "=", "2"),),
              consumer=ConsumerQoS(min_reliability=0.5, max_latency_s=1.0),
              consumer_position=(0.0, 0.0))

# ------------------------------------------------------- interaction styles


def pubsub_broker():
    fabric, advance = _fabric()
    broker = PubSubBroker(fabric.endpoint("hub", "ps"))
    client = PubSubClient(fabric.endpoint("c", "ps"), Address("hub", "ps"))

    def probe():
        got = []
        client.subscribe("probe.*", lambda topic, event: got.append(event))
        advance(1)
        client.publish("probe.b", 1)
        advance(1)
        return got == [1]

    return Rig(broker, {
        "sub": {"op": "sub", "rid": "r", "pattern": "a.*", "filters": [
            {"name": "level", "op": ">=", "value": "3"}]},
        "unsub": {"op": "unsub", "pattern": "a.*"},
        "pub": {"op": "pub", "topic": "a.b", "event": {"level": 3}},
    }, advance, probe)


def pubsub_client():
    fabric, advance = _fabric()
    PubSubBroker(fabric.endpoint("hub", "ps"))
    client = PubSubClient(fabric.endpoint("c", "ps"), Address("hub", "ps"))
    got = []
    client.subscribe("a.*", lambda topic, event: got.append(event))
    advance(1)
    rids = _held(client, "broker_address",
                 lambda: client.subscribe("held.*", lambda topic, event: None))

    def probe():
        client.publish("a.b", 1)
        advance(1)
        return got == [1]

    return Rig(client, {
        "event": {"op": "event", "topic": "a.b", "event": 1, "pattern": "a.*"},
        "sub_ack": {"op": "sub_ack", "rid": "$rid"},
    }, advance, probe, Address("hub", "ps"), expires_s=2.5, rids=rids)


def message_broker():
    fabric, advance = _fabric()
    broker = MessageBroker(fabric.endpoint("hub", "mq"))
    client = MessagingClient(fabric.endpoint("c", "mq"), Address("hub", "mq"))

    def probe():
        got = []
        client.subscribe("probe", got.append)
        client.put("probe", {"n": 1})
        advance(1)
        return got == [{"n": 1}]

    return Rig(broker, {
        "put": {"op": "put", "queue": "jobs", "body": [1, 2], "rid": "r"},
        "subscribe": {"op": "subscribe", "queue": "jobs", "rid": "r"},
        "ack": {"op": "ack", "mid": "m-0"},
    }, advance, probe)


def messaging_client():
    fabric, advance = _fabric()
    MessageBroker(fabric.endpoint("hub", "mq"))
    client = MessagingClient(fabric.endpoint("c", "mq"), Address("hub", "mq"))
    got = []
    client.subscribe("jobs", got.append)
    advance(1)
    rids = _held(client, "broker_address", lambda: (
        client.put("held", 1, confirm=True),
        client.subscribe("held", lambda body: None)))

    def probe():
        client.put("jobs", "x")
        advance(1)
        return got == ["x"]

    return Rig(client, {
        "deliver": {"op": "deliver", "queue": "jobs", "mid": "m-9", "body": 1},
        "put_ack": {"op": "put_ack", "rid": "$rid", "mid": "m-9"},
        "subscribe_ack": {"op": "subscribe_ack", "rid": "$rid"},
    }, advance, probe, Address("hub", "mq"), expires_s=2.5, rids=rids)


def tuple_space_server():
    fabric, advance = _fabric()
    server = TupleSpaceServer(fabric.endpoint("hub", "ts"))
    client = TupleSpaceClient(fabric.endpoint("c", "ts"), Address("hub", "ts"))
    client.out("k", 1)
    advance(1)

    def probe():
        client.out("probe", 2)
        found = client.rdp("probe", None)
        advance(1)
        return found.result() == ["probe", 2]

    return Rig(server, {
        "out": {"op": "out", "tuple": ["j", [1, 2]], "rid": "r"},
        "rd": {"op": "rd", "template": ["k", None], "rid": "r"},
        "in": {"op": "in", "template": ["missing", "?int"], "rid": "r"},
        "rdp": {"op": "rdp", "template": ["k", "?int"], "rid": "r"},
        "inp": {"op": "inp", "template": ["k", 1], "rid": "r"},
    }, advance, probe, stores=lambda: (server.snapshot(), server._waiters))


def tuple_space_client():
    fabric, advance = _fabric()
    TupleSpaceServer(fabric.endpoint("hub", "ts"))
    client = TupleSpaceClient(fabric.endpoint("c", "ts"), Address("hub", "ts"))
    rids = _held(client, "space_address", lambda: client.rd("held", None))

    def probe():
        client.out("k", 1)
        found = client.rdp("k", None)
        advance(1)
        return found.result() == ["k", 1]

    return Rig(client, {
        "tuple": {"op": "tuple", "rid": "$rid", "tuple": ["k", [1, 2]]},
    }, advance, probe, Address("hub", "ts"), rids=rids)


def object_host():
    fabric, advance = _fabric()
    host = SharedObjectHost(fabric.endpoint("hub", "so"),
                            write_through_acks=True)
    cache = SharedObjectCache(fabric.endpoint("c", "so"), Address("hub", "so"))
    other = SharedObjectCache(fabric.endpoint("d", "so"), Address("hub", "so"))
    other.read("k")
    advance(1)

    def probe():
        cache.write("probe", 1)
        advance(1)
        return host.value("probe") == 1

    return Rig(host, {
        "get": {"op": "get", "rid": "r", "key": "k", "watch": True},
        "put": {"op": "put", "rid": "r", "key": "k", "value": [1], "watch": True},
        "inv_ack": {"op": "inv_ack", "wid": 1},
    }, advance, probe)


def object_cache():
    fabric, advance = _fabric()
    SharedObjectHost(fabric.endpoint("hub", "so"))
    cache = SharedObjectCache(fabric.endpoint("c", "so"), Address("hub", "so"))
    cache.write("k", 1)
    advance(1)
    rids = _held(cache, "host_address", lambda: (
        cache.read("held"), cache.write("held too", 2)))

    def probe():
        return cache.read("k").result() == 1 and cache.cache_hits == 1

    return Rig(cache, {
        "invalidate": {"op": "invalidate", "key": "k", "version": 9, "wid": 4},
        "got": {"op": "got", "rid": "$rid", "value": [1], "version": 3},
        "put_ack": {"op": "put_ack", "rid": "$rid", "version": 3},
    }, advance, probe, Address("hub", "so"), rids=rids)


def agent_host():
    fabric, advance = _fabric()
    host = AgentHost(fabric.endpoint("hub", "agents"))
    home = AgentHost(fabric.endpoint("c", "agents"))
    host.register(Stamper)
    home.register(Stamper)
    host.dispatch(Stamper(), [VOID])  # a homecoming the fuzz can answer

    def probe():
        done = home.dispatch(Stamper(), [Address("hub", "agents")])
        advance(1)
        return done.result() == {"seen": ["hub"]}

    return Rig(host, {
        "agent": {"op": "agent", "name": "Stamper", "state": {"seen": []},
                  "itinerary": ["c:agents"], "home": "c:agents", "hops": 1},
        "agent_done": {"op": "agent_done", "name": "Stamper",
                       "state": {"seen": ["x"]}, "hops": 1},
        "agent_refused": {"op": "agent_refused", "name": "Stamper",
                          "at": "x:agents"},
    }, advance, probe)


def rpc_endpoint():
    fabric, advance = _fabric()
    server = RpcEndpoint(fabric.endpoint("s", "rpc"))
    client = RpcEndpoint(fabric.endpoint("c", "rpc"))
    server.expose("echo", lambda text="": text)
    client.expose("echo", lambda text="": text)
    client.call(VOID, "echo", timeout_s=2.0)

    def probe():
        answer = server.call(Address("c", "rpc"), "echo", {"text": "hi"})
        advance(1)
        return answer.result() == "hi"

    return Rig(client, {
        "call": {"op": "call", "rid": "r", "method": "echo",
                 "params": {"text": "x"}},
        "notify": {"op": "notify", "method": "echo", "params": {"text": "x"}},
        "result": {"op": "result", "rid": "$rid", "value": [1]},
        "error": {"op": "error", "rid": "$rid", "type": "ValueError",
                  "msg": "no"},
    }, advance, probe, Address("s", "rpc"), _only(client._pending), 2.5)


# ------------------------------------------------------ naming and discovery


def location_server():
    fabric, advance = _fabric()
    server = LocationServer(fabric.endpoint("hub", "loc"))
    client = LocationClient(fabric.endpoint("c", "loc"), Address("hub", "loc"))
    client.bind(LogicalName.parse("ward/bed1"), Address("n1", "svc"))
    advance(1)

    def probe():
        name = LogicalName.parse("sensors/bp")
        client.bind(name, Address("n5", "svc"))
        listing = client._ask({"op": "resolve_prefix", "prefix": "sensors"})
        advance(1)
        return listing.result() == {"sensors/bp": Address("n5", "svc")}

    return Rig(server, {
        "bind": {"op": "bind", "rid": "r", "name": "ward/bed2",
                 "address": "n2:svc", "version": 2},
        "resolve": {"op": "resolve", "rid": "r", "name": "ward/bed1"},
        "resolve_prefix": {"op": "resolve_prefix", "rid": "r", "prefix": "ward"},
        "unbind": {"op": "unbind", "rid": "r", "name": "ward/bed1"},
    }, advance, probe)


def location_client():
    fabric, advance = _fabric()
    LocationServer(fabric.endpoint("hub", "loc"))
    client = LocationClient(fabric.endpoint("c", "loc"), Address("hub", "loc"))
    held = LogicalName.parse("held/name")
    rids = _held(client, "server_address", lambda: (
        client.bind(held, Address("n9", "svc")),
        client._ask({"op": "unbind", "name": str(held)}), client.resolve(held),
        client._ask({"op": "resolve_prefix", "prefix": str(held)})))

    def probe():
        name = LogicalName.parse("sensors/bp")
        client.bind(name, Address("n5", "svc"))
        found = client.resolve(name)
        advance(1)
        return found.result() == Address("n5", "svc")

    return Rig(client, {
        "bind_ack": {"op": "bind_ack", "rid": "$rid", "ok": True},
        "unbind_ack": {"op": "unbind_ack", "rid": "$rid", "ok": True},
        "resolve_ack": {"op": "resolve_ack", "rid": "$rid",
                        "address": "n5:svc", "version": 1},
        "resolve_prefix_ack": {"op": "resolve_prefix_ack", "rid": "$rid",
                               "bindings": {"ward/bed1": "n1:svc"}},
    }, advance, probe, Address("hub", "loc"), expires_s=2.5, rids=rids)


def registry_server():
    fabric, advance = _fabric()
    server = RegistryServer(fabric.endpoint("hub", "reg"))
    client = RegistryClient(fabric.endpoint("c", "reg"), Address("hub", "reg"))
    client.register(DESC, auto_renew=False)
    advance(1)

    def probe():
        found = client.lookup(Query("printer"))
        advance(1)
        return [d.service_id for d in found.result()] == ["svc-1"]

    return Rig(server, {
        "register": {"op": "register", "rid": "r", "lease_s": 20.0,
                     "desc": {**DESC.to_dict(), "service_id": "svc-2"}},
        "renew": {"op": "renew", "rid": "r", "service_id": "svc-1",
                  "lease_s": 20.0},
        "unregister": {"op": "unregister", "rid": "r", "service_id": "svc-1"},
        "lookup": {"op": "lookup", "rid": "r", "query": QUERY.to_dict()},
    }, advance, probe, stores=lambda: sorted(server._registrations))


def registry_client():
    fabric, advance = _fabric()
    RegistryServer(fabric.endpoint("hub", "reg"))
    client = RegistryClient(fabric.endpoint("c", "reg"), Address("hub", "reg"))
    client.register(DESC, auto_renew=False)
    advance(1)
    rids = _held(client, "registry_address", lambda: (
        client.register(DESC.with_position(3.0, 4.0)),
        client._ask({"op": "renew", "service_id": "held", "lease_s": 30.0}),
        client.unregister("held"), client.lookup(QUERY)))

    def probe():
        found = client.lookup(Query("printer"))
        advance(1)
        return [d.service_id for d in found.result()] == ["svc-1"]

    return Rig(client, {
        "register_ack": {"op": "register_ack", "rid": "$rid",
                         "service_id": "svc-1", "lease_s": 20.0},
        "renew_ack": {"op": "renew_ack", "rid": "$rid", "ok": True},
        "unregister_ack": {"op": "unregister_ack", "rid": "$rid",
                           "removed": True},
        "lookup_ack": {"op": "lookup_ack", "rid": "$rid",
                       "results": [DESC.to_dict()]},
    }, advance, probe, Address("hub", "reg"), expires_s=4.5, rids=rids)


def _radio_world():
    network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
    return SimFabric(network), lambda s: network.sim.run_until(
        network.sim.now() + s)


def distributed_discovery():
    fabric, advance = _radio_world()
    agent = DistributedDiscovery(fabric.endpoint("leaf0", "disc"),
                                 collect_window_s=0.5)
    peer = DistributedDiscovery(fabric.endpoint("leaf1", "disc"),
                                collect_window_s=0.5)
    agent.advertise(DESC)
    advance(1)
    agent.lookup(Query("scanner"))  # still collecting: a reply is ours

    def probe():
        found = peer.lookup(Query("printer"))
        advance(1)
        return [d.service_id for d in found.result()] == ["svc-1"]

    return Rig(agent, {
        "advert": {"op": "advert", "origin": "leaf2", "seq": 1, "ttl": 2,
                   "descs": [{**DESC.to_dict(), "service_id": "svc-2"}]},
        "withdraw": {"op": "withdraw", "origin": "leaf2", "seq": 2, "ttl": 2,
                     "service_id": "svc-2"},
        "query": {"op": "query", "origin": "leaf2", "qid": "q:leaf2-0",
                  "ttl": 2, "query": QUERY.to_dict()},
        "reply": {"op": "reply", "qid": _only(agent._collecting),
                  "origin": "leaf0", "results": [DESC.to_dict()]},
    }, advance, probe, Address("leaf1", "disc"))


def data_centric_agent():
    fabric, advance = _radio_world()
    agent = DataCentricAgent(fabric, "leaf0")
    sink = DataCentricAgent(fabric, "leaf1")
    got = []
    sink.subscribe("probe", lambda name, value, origin: got.append(value))
    agent.subscribe("temp", lambda name, value, origin: None)
    advance(1)

    def probe():
        agent.publish("probe", 7)
        advance(1)
        return got == [7]

    return Rig(agent, {
        "interest": {"c": "interest", "n": "temp", "o": "leaf2", "q": 1,
                     "h": 0, "t": 3},
        "data": {"c": "data", "n": "temp", "o": "leaf2", "q": 2, "v": 21.5},
    }, advance, probe, Address("leaf1", DIFFUSION_PORT))


# ------------------------------------------------- recovery and replication


def heartbeat_detector():
    fabric, advance = _fabric()
    watcher = HeartbeatDetector(fabric.endpoint("w", "hb"), interval_s=0.5)
    watcher.watch("peer")
    watcher.watch("probe")
    peer = HeartbeatDetector(fabric.endpoint("probe", "hb"), interval_s=0.5)
    peer.send_to(Address("w", "hb"))

    def probe():
        advance(1.2)
        return watcher._watched["probe"].last_seq >= 1

    return Rig(watcher, {"hb": {"op": "hb", "from": "peer", "seq": 1}},
               advance, probe, Address("peer", "hb"))


def group_client():
    fabric, advance = _fabric()
    members = [Address(node, "g") for node in ("r0", "r1", "r2")]
    deploy_group(fabric.endpoint, [m.node for m in members], StrictMachine,
                 port="g", params=FAST)
    client = GroupClient(fabric.endpoint("cli", "c"), members,
                         request_timeout_s=0.4)
    client.command("set", "k", 1)  # in flight: no time passes before the fuzz
    rid = _only(client._requests)

    def probe():
        done = client.command("set", "probe", 2)
        advance(2)
        return done.fulfilled

    return Rig(client, {
        "cmd_ack": {"op": "cmd_ack", "rid": "$rid", "result": 1, "index": 3},
        "cmd_err": {"op": "cmd_err", "rid": "$rid", "error": "no_quorum"},
        "redirect": {"op": "redirect", "rid": "$rid", "leader": "r1",
                     "term": 2},
        "stale": {"op": "stale", "rid": "$rid", "applied": 1, "leader": "r2"},
    }, advance, probe, members[2], rid)


def _replica(node, leader):
    fabric, advance = _fabric()
    members = ["r0", "r1", "r2"]
    replicas = deploy_group(fabric.endpoint, members, StrictMachine, port="g",
                            params=FAST)
    client = GroupClient(fabric.endpoint("cli", "c"),
                         [Address(m, "g") for m in members],
                         request_timeout_s=0.4)
    client.command("set", "k", 1)
    client.command("set", "k", 2)
    advance(1)
    replica = replicas[node]
    assert replica.log.commit_index == 2 and replica.role == (
        "primary" if node == leader else "backup")
    entry = {"i": 3, "t": 1, "r": "x-3", "n": "set", "a": ["k", 3]}

    def probe():
        done = client.command("set", "probe", 9)
        advance(3)
        return done.fulfilled

    return Rig(replica, {
        "cmd": {"op": "cmd", "rid": "x-9", "name": "get", "args": ["k"],
                "read": True, "mode": "any", "min_index": 1},
        "append": {"op": "append", "term": 1, "commit": 2, "prev": 2,
                   "prev_term": 1, "entries": [entry]},
        "append_ack": {"op": "append_ack", "term": 1, "index": 2},
        "need_catchup": {"op": "need_catchup", "from": 1},
        "fenced": {"op": "fenced", "term": 1},
        "snapshot": {"op": "snapshot", "term": 1, "index": 4, "sterm": 1,
                     "state": [["set", ["k", 1]]], "commit": 4,
                     "results": [["x-1", 1, 1], ["x-2", 2]]},
        "elect": {"op": "elect", "term": 2},
        "elect_ok": {"op": "elect_ok", "term": 2},
        "coord": {"op": "coord", "term": 1, "leader": leader},
        "sync_req": {"op": "sync_req", "term": 1, "from_index": 1},
        "sync": {"op": "sync", "term": 2, "commit": 2, "entries": [entry]},
    }, advance, probe, Address("r0" if node != "r0" else "r1", "g"),
        stores=lambda: (replica.log.last_index, replica.log.commit_index,
                        replica.machine.applied, replica.election._phase))


def replica_backup():
    return _replica("r1", leader="r2")


def replica_primary():
    return _replica("r2", leader="r2")


#: class -> the builders of its rigs.
RIGS = {
    PubSubBroker: (pubsub_broker,),
    PubSubClient: (pubsub_client,),
    MessageBroker: (message_broker,),
    MessagingClient: (messaging_client,),
    TupleSpaceServer: (tuple_space_server,),
    TupleSpaceClient: (tuple_space_client,),
    SharedObjectHost: (object_host,),
    SharedObjectCache: (object_cache,),
    AgentHost: (agent_host,),
    RpcEndpoint: (rpc_endpoint,),
    LocationServer: (location_server,),
    LocationClient: (location_client,),
    RegistryServer: (registry_server,),
    RegistryClient: (registry_client,),
    DistributedDiscovery: (distributed_discovery,),
    DataCentricAgent: (data_centric_agent,),
    HeartbeatDetector: (heartbeat_detector,),
    GroupClient: (group_client,),
    ReplicaNode: (replica_backup, replica_primary),
}
