"""Regression tests for the optimized hot paths.

Covers the behaviors the event-loop and queue rewrites must preserve: NaN
rejection at scheduling time (NaN used to slip past the ``when < now``
guard and corrupt heap ordering) and at run time (a NaN deadline never
stops the loop), tombstone compaction semantics, and the one inlined pop
path behind ``run``/``run_until`` honoring cancellation. The last nine
classes are call-count guards: on the event loop itself, on the radio
reception path, on a flooded multi-hop delivery, on a warm MiLAN
reconfiguration round, on a request/reply round trip through the
message-endpoint skeleton, on one unicast datagram from ``_send`` to
handler, on a reliable send traced and untraced, on every benchmark
workload as a whole, and on the quorum-write path. One more pins what
each workload's run allocates, and another counts what a benchmark child
loads at start-up.
"""

import math
import sys

import pytest

from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.errors import SimulationError
from repro.experiments import exp_milan
from repro.netsim.medium import RadioProfile
from repro.netsim.mobility import LinearMobility, is_time_varying
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import grid
from repro.obs.profiler import count_repro_calls
from repro.obs.tracing import TRACER
from repro.replication.client import GroupClient
from repro.routing.base import build_routed_network
from repro.routing.flooding import FloodingRouter
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.endpoint import MessageEndpoint
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import ReliableTransport
from repro.transport.simnet import SimFabric
from repro.workloads import ScenarioRun, parse_spec
from repro.workloads.campaign import CampaignSpec, ChaosCampaign
from tests import e2e_workloads


class TestNaNScheduling:
    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)
        assert sim._live == 0

    def test_schedule_rejects_nan_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        assert sim._live == 0

    def test_schedule_at_still_rejects_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.999, lambda: None)

    def test_schedule_at_now_and_integer_times_still_work(self):
        sim = Simulator(start_time=2.0)
        fired = []
        sim.schedule_at(2.0, fired.append, "now")
        sim.schedule_at(3, fired.append, "int")  # int when must normalize
        sim.run()
        assert fired == ["now", "int"]
        assert isinstance(sim.now(), float)

    def test_run_until_rejects_nan_deadline(self):
        # NaN compares False against every event time, so the loop's
        # ``when > deadline`` stop never fires: it would drain the queue.
        sim = Simulator()
        fired = []
        sim.schedule_at(1e9, fired.append, "far")
        with pytest.raises(SimulationError):
            sim.run_until(math.nan)
        assert fired == [] and sim.now() == 0.0

    def test_run_for_rejects_nan_duration(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1e9, fired.append, "far")
        with pytest.raises(SimulationError):
            sim.run_for(math.nan)
        assert fired == [] and sim.now() == 0.0

    def test_start_time_rejects_nan(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=math.nan)


class TestQueueCompaction:
    """Cancellation tombstones an entry in place; a cancel that leaves dead
    entries outnumbering live ones (and more than 64 of them) sweeps them
    out of the simulator's heap, in place."""

    def test_compact_sweeps_only_tombstones(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0 + i, fired.append, i) for i in range(200)]
        for i, handle in enumerate(handles):
            if i % 10:
                handle.cancel()
        assert sim._live == 20
        assert len(sim._heap) < 200  # tombstones actually gone
        sim.run()
        assert fired == list(range(0, 200, 10))

    def test_compact_on_clean_queue_is_noop(self):
        # A handful of tombstones stays in place until popped.
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        heap = sim._heap
        for handle in handles[:5]:
            handle.cancel()
        assert sim._heap is heap and len(heap) == 10
        sim.run()
        assert sim.events_processed == 5

    def test_cancel_auto_compacts_when_dead_dominate(self):
        sim = Simulator()
        fired = []
        live = sim.schedule(0.5, fired.append, "keep")
        handles = [sim.schedule(1.0 + i, fired.append, i) for i in range(200)]
        for handle in handles:
            handle.cancel()
        # Lazy deletion alone would leave 200 tombstones in the list.
        assert sim._live == 1
        assert len(sim._heap) < 200
        sim.run()
        assert fired == ["keep"]
        assert live.cancel() is False  # fired events cannot be cancelled

    def test_cancel_after_compact_returns_false(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(100)]
        for handle in handles:
            handle.cancel()
        assert len(sim._heap) < 100  # swept
        assert handles[0].cancel() is False
        assert sim._live == 0

    def test_stable_order_preserved_across_compact(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "first")
        doomed = [sim.schedule(1.0, fired.append, "doomed") for _ in range(100)]
        sim.schedule(1.0, fired.append, "second")
        for handle in doomed:
            handle.cancel()
        assert len(sim._heap) < 100  # swept
        sim.run()
        assert fired == ["first", "second"]


class TestInlinedEventLoops:
    def test_run_skips_cancelled_events(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(2.0, fired.append, "kept")
        handle.cancel()
        sim.run()
        assert fired == ["kept"]
        assert sim.events_processed == 1

    def test_run_until_skips_cancelled_and_sets_clock(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(2.0, fired.append, "kept")
        sim.schedule(9.0, fired.append, "late")
        handle.cancel()
        sim.run_until(5.0)
        assert fired == ["kept"]
        assert sim.now() == 5.0
        assert sim._live == 1

    def test_cancel_during_run_is_honored(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, lambda: later.cancel())
        sim.run()
        assert fired == []

    def test_late_cancel_of_fired_event_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert handle.cancel() is False
        assert fired == ["x"]

    def test_mass_cancellation_mid_run_with_auto_compact(self):
        # A callback cancelling hundreds of pending events exercises the
        # in-place compact while run()'s inlined loop holds a reference to
        # the heap list; events scheduled after the sweep must still fire.
        sim = Simulator()
        fired = []
        handles = [sim.schedule(2.0 + i * 0.001, fired.append, i) for i in range(300)]

        def cancel_most_then_reschedule():
            for handle in handles[10:]:
                handle.cancel()
            sim.schedule(5.0, fired.append, "after-sweep")

        sim.schedule(1.0, cancel_most_then_reschedule)
        sim.run()
        assert fired == list(range(10)) + ["after-sweep"]

    def test_run_until_deadline_exactly_on_event_time_fires_it(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, fired.append, "edge")
        sim.run_until(3.0)
        assert fired == ["edge"]
        assert sim.now() == 3.0

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_run_event_cap_still_raises(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.001, rearm)

        sim.schedule(0.001, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)


class TestEventLoopCallBudget:
    """Python-level calls inside ``src/repro`` per simulator event.

    A chain of 1 000 events, each callback (test code, not counted)
    scheduling the next: through ``schedule`` an event costs two frames
    (``schedule`` and ``_handle``; the handle is the heap entry, a list
    subclass built without a Python ``__init__``), through ``call_later``
    one, and the loop's own frame is paid once per ``run``/``run_until``
    call, never per event. It was three while the handle was an object of
    its own. A cancel is one frame (``EventHandle.cancel``, with the
    tombstone and the sweep check inline); it was two.
    """

    EVENTS = 1000

    def chain(self, sim, schedule, drive):
        def tick(left):
            if left:
                schedule(0.001, tick, left - 1)

        def go():
            schedule(0.001, tick, self.EVENTS - 1)
            drive()

        calls = count_repro_calls(go)
        assert sim.events_processed == self.EVENTS
        return sum(calls.values()) / self.EVENTS

    def test_schedule_chain_under_run(self):
        sim = Simulator()
        assert self.chain(sim, sim.schedule, sim.run) <= 2.001

    def test_call_later_chain_under_run_until(self):
        sim = Simulator()
        per_event = self.chain(sim, sim.call_later,
                               lambda: sim.run_until(1e3))
        assert per_event <= 1.002

    def test_cancel_is_one_frame(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None)
                   for i in range(self.EVENTS)]

        def cancel_half():
            for handle in handles[::2]:
                handle.cancel()

        calls = count_repro_calls(cancel_half)
        assert calls == {"cancel": self.EVENTS // 2}


class TestReceptionCallBudget:
    """Python-level calls inside ``src/repro`` per radio delivery.

    The fused reception routine costs about 4 such calls per delivery; a
    chain of per-receiver helpers and nested liveness properties around
    the one float subtraction costs 18. With the neighbour memo answering
    static origins and ``alive`` read in place per neighbour, 2.56 on the
    numpy index and 2.88 on the grid whose refresh read ``position`` per
    mover (3.68 and 6.49 when every frame asked the index); 2.57 and 2.94
    once records' ``__init__`` was counted. The one index that tests
    movers where they are at query time, with no refresh, costs 2.52; a
    reception made in the medium's loop, with no ``Node.receive`` and no
    ``Battery.drain`` but for the charge that empties a battery, 0.52.
    Counts are exact and repeat run to run, so the budget needs no timing
    tolerance: a change that puts such a chain back fails here, on any
    machine.
    """

    BUDGET = 0.53
    ROUNDS = 4

    def swarm(self):
        """The benchmark's smoke size: a 12x12 grid, 4 rounds, one node in
        ten drifting, every node beaconing at its own timestamp."""
        profile = RadioProfile(
            name="802.11-swarm", bandwidth_bps=11e6, range_m=100.0,
            base_latency_s=0.001, loss_probability=0.01)
        network = grid(12, 12, spacing=30.0, radio_profile=profile, seed=0)
        sim, medium = network.sim, network.medium
        nodes = network.nodes()
        heard = []
        for i, node in enumerate(nodes):
            # A handler that does not call back into repro.
            node.set_packet_handler(lambda n, p: heard.append(None))
            if i % 10 == 0:
                node.set_mobility(LinearMobility(
                    start=node.position, velocity=(1.0, 0.5), start_time=0.0))

        def beacon(node):
            medium.transmit(node.node_id, Packet(
                source=node.node_id, destination=BROADCAST, payload=b"b",
                payload_bytes=16))

        step = 2.0 * 0.8 / len(nodes)
        for round_index in range(self.ROUNDS):
            for i, node in enumerate(nodes):
                sim.schedule_at(0.05 + round_index * 2.0 + i * step,
                                beacon, node)

        calls = count_repro_calls(sim.run)

        assert medium.transmissions == self.ROUNDS * len(nodes)
        assert len(heard) == medium.deliveries > 10_000
        return calls, medium, nodes

    def test_beacon_swarm_stays_within_budget(self):
        calls, medium, _nodes = self.swarm()
        assert sum(calls.values()) / medium.deliveries <= self.BUDGET

    def test_index_is_asked_once_per_static_origin(self):
        # The window (0.999 * 50 m / 1.118 m/s) outlasts the 8 s run, so a
        # static origin asks once; a mobile origin asks at every beacon.
        # Asked per beacon, this was 576 queries; it is 129 + 60.
        calls, _medium, nodes = self.swarm()
        mobile = sum(is_time_varying(node.mobility) for node in nodes)
        queries = (calls["query_neighbourhood"]
                   + calls["query_circle_ordered"])
        static_origins = len(nodes) - mobile
        assert (static_origins, mobile) == (129, 15)
        assert queries <= static_origins + self.ROUNDS * mobile
        assert calls["query_circle_ordered"] == self.ROUNDS * mobile


class TestFloodCallBudget:
    """Python-level calls inside ``src/repro`` per delivery of a flood.

    A 3x3 grid at 60 m where every node runs a ``FloodingRouter``: each
    corner-to-corner unicast is rebroadcast once by the eight other nodes,
    and about four receptions in five are duplicates. With the position
    index asked per frame and an ``Envelope`` built before the duplicate
    check, a delivery cost 38.6 such calls; answered from the static
    neighbourhood memo and dropped before anything is built, 26.1. It was
    18.7 before the per-delivery frame counters were deleted, and 16.36
    after; 14.36 once a reception stopped calling ``Node.receive`` and
    ``Battery.drain``. The world never moves, so the index may be asked
    once per sender — not once per transmission.
    """

    BUDGET = 14.4
    UNICASTS = 200

    def test_flooded_grid_stays_within_budget(self):
        network = grid(3, 3, spacing=60.0, seed=0)
        sim, medium = network.sim, network.medium
        agents = build_routed_network(
            SimFabric(network), lambda node_id: FloodingRouter())
        source = agents["n0_0"].open_port("app")
        delivered = []
        agents["n2_2"].open_port("app").set_receiver(
            lambda sender, body: delivered.append(body))
        for i in range(self.UNICASTS):
            sim.schedule_at(0.1 + 0.05 * i, source.send,
                            Address("n2_2", "app"), b"x" * 32)

        calls = count_repro_calls(sim.run)

        # Everyone but the destination rebroadcasts each envelope once.
        assert medium.transmissions == 8 * self.UNICASTS
        assert len(delivered) == self.UNICASTS
        duplicates = sum(agent.dropped.get("duplicate", 0)
                         for agent in agents.values())
        assert duplicates > 0.75 * medium.deliveries > 5_000
        assert sum(calls.values()) / medium.deliveries <= self.BUDGET
        senders = len(agents) - 1
        assert 0 < calls["query_neighbourhood"] <= senders
        assert calls["query_circle_ordered"] == 0


class TestReconfigureCallBudget:
    """Python-level calls inside ``src/repro`` per warm MiLAN round.

    The E10 nine-sensor fleet at rest has twelve candidate sets of two or
    three members. An energy-only ``advance_time`` + ``reconfigure`` round
    walks the fleet once, ranks the entry's compiled columns, builds the
    winner's ``SetScore`` and reuses its kept configuration: 26 calls
    with either strategy, of which the only per-sensor ones are
    ``advance_time``'s drained copies of the active sensors. Nothing is
    enumerated in the loop, and no sensor's signature is computed. How
    the count came down from 287 is in CHANGES.md.
    """

    BUDGET = 26.1
    ROUNDS = 50

    @pytest.mark.parametrize("selection", ["balanced", "max_lifetime"])
    def test_warm_round_stays_within_budget(self, selection):
        policy = health_monitor_policy()
        policy.selection = selection
        milan = Milan(policy, auto_reconfigure=False)
        for sensor in exp_milan.fleet():
            milan.add_sensor(sensor)
        milan.reconfigure()
        before = milan.engine.stats()

        def loop():
            for _ in range(self.ROUNDS):
                milan.advance_time(0.5)
                milan.reconfigure()

        calls = count_repro_calls(loop)

        alive = [s for s in milan.sensors.values() if not s.depleted]
        assert len(alive) == len(milan.sensors) == 9
        after = milan.engine.stats()
        assert after["feasibility_misses"] == before["feasibility_misses"]
        assert after["feasibility_hits"] == before["feasibility_hits"] + self.ROUNDS
        assert after["score_misses"] == before["score_misses"]
        assert sum(calls.values()) / self.ROUNDS <= self.BUDGET
        assert calls["sensor_signature"] == 0


class TestEndpointCallBudget:
    """Python-level calls inside ``src/repro`` per request/reply round trip.

    ``MessageEndpoint._on_message`` decodes, checks the declared fields
    inline and calls the op's handler: one dispatch frame per message and
    nothing more. With each protocol spelling its own receive path an
    ``RpcEndpoint`` ping cost 75 such calls and a ``TupleSpaceClient.rdp``
    66; through the skeleton 76 and 68 (the reply handlers are the added
    frames, and the space now answers through the shared ``_reply`` ->
    ``_send`` instead of a private one-call sender): no more than one
    frame per message over the old paths. With a frame sized once, in
    ``Transport.send``, and ``closed`` read in place, 72 and 64; 68 and 62
    before the per-delivery frame counters were deleted, 64 and 58 after —
    and those are the ceilings: a validator called per field, a helper
    between the table and the handler, or a ``len()`` per layer fails here.
    They were 62 and 58 while records were dataclasses; the written
    ``__init__``, ``__eq__`` and ``__hash__`` frames are counted, and the
    generated ones were not: 67 and 61.
    """

    def round_trip_calls(self, request, fabric):
        answered = []

        def trip():
            answered.append(request())
            fabric.sim.run()

        trip()  # first use fills the codec caches
        calls = sum(count_repro_calls(trip).values())
        assert all(promise.fulfilled for promise in answered)
        return calls

    def test_rpc_ping_stays_within_budget(self):
        fabric = InMemoryFabric()
        server = RpcEndpoint(fabric.endpoint("s", "rpc"))
        client = RpcEndpoint(fabric.endpoint("c", "rpc"))
        server.expose("ping", lambda: "pong")
        calls = self.round_trip_calls(
            lambda: client.call(Address("s", "rpc"), "ping"), fabric)
        assert calls <= 67

    def test_tuple_space_probe_stays_within_budget(self):
        fabric = InMemoryFabric()
        TupleSpaceServer(fabric.endpoint("hub", "ts"))
        client = TupleSpaceClient(fabric.endpoint("c", "ts"),
                                  Address("hub", "ts"))
        client.out("k", 1)
        calls = self.round_trip_calls(lambda: client.rdp("k", None), fabric)
        assert calls <= 61


class _Pinger(MessageEndpoint):
    """The smallest protocol there is: ``ping`` answered with ``ping_ack``."""

    OPS = {"ping": ({"rid": int, "note": str}, "_on_ping"),
           "ping_ack": ({"rid": int, "note": str}, "_on_ping_ack")}

    def __init__(self, transport):
        super().__init__(transport)
        self.acked = []

    def ping(self, destination, rid):
        self._send(destination, {"op": "ping", "rid": rid, "note": "hello"})

    def _on_ping(self, source, message):
        self._reply(source, "ping_ack", message["rid"], note=message["note"])

    def _on_ping_ack(self, source, message):
        self.acked.append(message["rid"])


class TestDatagramCallBudget:
    """Python-level calls inside ``src/repro`` per unicast transmission.

    Two pinned nodes 30 m apart under a ``SimFabric``, a ping answered by a
    ping_ack: everything one datagram costs from ``MessageEndpoint._send``
    to the handler on the far side — the frame and the sizing of its
    three-field dict, the send half (``Transport.send`` -> ``_send`` ->
    ``_transmit`` -> ``Packet`` -> ``Network.send`` -> ``transmit`` ->
    ``charge_tx`` -> ``call_later``), the receive half (``_deliver`` ->
    ``_on_packet`` -> ``_dispatch`` -> ``_on_message``),
    ``_reply`` and ``sim.run``.
    The helpers ``distance_to``, ``alive``, ``position`` and ``push`` must
    not come back on this path at all, and a frame's length is asked for
    once a transmission (the packet's size), not three times.

    A perf change lowers ``BUDGET`` in the same diff; it is raised only
    with a note in CHANGES.md that says why.
    """

    BUDGET = 26.4
    ROUND_TRIPS = 100

    def test_ping_round_trips_stay_within_budget(self):
        network = grid(1, 2, spacing=30.0, seed=0)
        fabric = SimFabric(network)
        near, far = (_Pinger(fabric.endpoint(node_id, "ping"))
                     for node_id in network.node_ids())
        destination = far.transport.local_address
        medium = network.medium

        def trips(rids):
            # One at a time: a lost ping or ack (the stock 802.11 profile
            # drops one reception in a hundred) costs what it costs.
            for rid in rids:
                near.ping(destination, rid)
                fabric.run()

        trips([0])  # first use fills the key-header caches
        before = medium.transmissions
        calls = count_repro_calls(
            lambda: trips(range(1, self.ROUND_TRIPS + 1)))

        sent = medium.transmissions - before
        assert len(near.acked) > 0.9 * self.ROUND_TRIPS
        assert self.ROUND_TRIPS < sent <= 2 * self.ROUND_TRIPS
        assert sum(calls.values()) / sent <= self.BUDGET
        for helper in ("distance_to", "alive", "position", "push"):
            assert calls[helper] == 0, helper
        assert calls["__len__"] <= sent


class TestTracingCallBudget:
    """Python-level calls inside ``src/repro`` per reliable send, traced and
    untraced: ``bench_obs.py``'s burst of 200 loss-free sends between two
    ``ReliableTransport`` endpoints on an ``InMemoryFabric``, acks and
    deliveries included. Traced, each send opens five spans: the reliable
    send and the inner send it wraps, the delivery, the ack's send and the
    ack's delivery. The rows hold tracing's cost by a count, not by wall
    time.

    A perf change lowers its row in the same diff; a row is raised only
    with a note in CHANGES.md that says why.
    """

    SENDS = 200
    TRACED, UNTRACED = 93.04, 40.04

    def calls_per_send(self, traced):
        fabric = InMemoryFabric(latency_s=0.001)
        sender = ReliableTransport(fabric.endpoint("a"))
        receiver = ReliableTransport(fabric.endpoint("b"))
        received = []
        receiver.set_receiver(lambda source, payload: received.append(payload))
        destination = Address("b")

        def burst():
            for _ in range(self.SENDS):
                sender.send(destination, b"x" * 32)
            fabric.run()

        if traced:
            TRACER.enable(seed=0, clock=fabric.sim)
        try:
            calls = count_repro_calls(burst)
        finally:
            TRACER.disable()
        assert len(received) == self.SENDS
        return sum(calls.values()) / self.SENDS

    def test_untraced_send_stays_within_budget(self):
        assert self.calls_per_send(traced=False) <= self.UNTRACED

    def test_traced_send_stays_within_budget(self):
        assert self.calls_per_send(traced=True) <= self.TRACED


class TestWorkloadCountCeiling:
    """Per-op counts of each benchmark workload at its smoke size, seed 0.

    The workloads are the benchmark's own builders, run as its timed region
    is: ``build(name, 0, smoke=True)``, then ``run()`` under
    ``count_repro_calls``, then ``outcome()`` for the ops and counters.
    Each row pins ``src/repro`` calls per op, medium transmissions per op
    and simulator events per op, at the measured value plus < 0.5 %.
    Transmissions and events move with protocol traffic, calls with host
    cost. ``milan_lifetime`` builds no network, so it pins calls only.
    ``grid_failover``'s campaigns build their worlds inside ``run()``; a
    recording ``run_campaign`` keeps each campaign in hand for its counts.

    A perf change lowers its row in the same diff; a row is raised only
    with a note in CHANGES.md that says why.
    """

    #: (calls per op, transmissions per op, events per op); measured, in
    #: the same order: 507.05, 14.058, 17.655 | 60.21, 1.0367, 2.0367 |
    #: 303.32, 8, 9 | 9 211.85, 138.375, 577.69 | 41.75, 1, 2 | 44.60.
    #: The three open-loop rows include one call per arrival, the
    #: ``schedule_series`` hop that streams the schedule into the timed run.
    #: CHANGES.md records why each row moved.
    CEILINGS = {
        "ledger_write": (509.3, 14.11, 17.73),
        "api_flash": (60.48, 1.041, 2.045),
        "chat_read": (304.60, 8.03, 9.04),
        "grid_failover": (9254.0, 138.93, 580.0),
        "swarm_beacon": (41.93, 1.004, 2.008),
        "milan_lifetime": (44.8, None, None),
    }

    workloads = e2e_workloads.load()

    def measure(self, name, monkeypatch):
        """(calls per op, transmissions per op, events per op)."""
        campaigns = []

        def run_campaign(mix, seed, **overrides):
            campaigns.append(ChaosCampaign(
                CampaignSpec(mix=mix, seed=seed, **overrides)))
            return campaigns[-1].run()

        monkeypatch.setattr(self.workloads, "run_campaign", run_campaign)
        workload = self.workloads.build(name, 0, smoke=True)
        calls = sum(count_repro_calls(workload.run).values())
        outcome = workload.outcome()
        ops, counters = outcome["ops"], outcome["counters"]
        if campaigns:
            counters = {"transmissions": sum(
                c.network.medium.transmissions for c in campaigns),
                "events": sum(c.network.sim.events_processed
                              for c in campaigns)}
        if "events" not in counters:
            return calls / ops, None, None
        return (calls / ops, counters["transmissions"] / ops,
                counters["events"] / ops)

    @pytest.mark.parametrize("name", list(workloads.SIZES))
    def test_workload_stays_under_its_ceiling(self, name, monkeypatch):
        measured = self.measure(name, monkeypatch)
        for what, got, ceiling in zip(
                ("calls", "transmissions", "events"), measured,
                self.CEILINGS[name]):
            if ceiling is None:
                assert got is None, what
            else:
                assert got <= ceiling, f"{name}: {what} per op {got:.4f}"


class TestWorkloadMemoryCeiling:
    """What each benchmark workload's timed ``run()`` allocates, in bytes.

    A fresh child builds the workload at its smoke size, seed 0, collects,
    and reports the ``tracemalloc`` peak of ``run()``
    (``e2e_workloads.traced_peak_of_run``). The peaks repeat to the byte
    per interpreter but differ between versions, so there is one row per
    minor version, each pinned at the measured value + 1 %. Any other
    version is held to the largest row + 25 %. A row drifts inside its
    1 % as commits move what a run allocates, so a change that moves a row
    re-measures every row on every version and re-pins the rows it moved.

    A memory change lowers its row in the same diff; a row is raised only
    with a note in CHANGES.md that says why.
    """

    PEAKS = {
        (3, 10): {"ledger_write": 349_363, "api_flash": 82_013,
                  "chat_read": 228_422, "grid_failover": 1_163_883,
                  "swarm_beacon": 283_784, "milan_lifetime": 88_394},
        (3, 11): {"ledger_write": 232_380, "api_flash": 28_199,
                  "chat_read": 180_045, "grid_failover": 937_743,
                  "swarm_beacon": 268_560, "milan_lifetime": 65_824},
        (3, 12): {"ledger_write": 226_416, "api_flash": 28_095,
                  "chat_read": 177_821, "grid_failover": 927_439,
                  "swarm_beacon": 268_984, "milan_lifetime": 65_720},
    }

    #: Bytes a duplicate table holds per heard (origin, seq) pair: its dict,
    #: its sets and its origin texts (the seq ints are held by any layout).
    #: 69–71 as origin -> set of seqs; 148–156 as a set of pairs.
    DEDUP_BYTES_PER_PAIR = 75

    @pytest.mark.parametrize("name", list(TestWorkloadCountCeiling.workloads.SIZES))
    def test_run_peak_stays_under_its_ceiling(self, name):
        row = self.PEAKS.get(sys.version_info[:2])
        ceiling = (row[name] * 1.01 if row is not None else
                   max(row[name] for row in self.PEAKS.values()) * 1.25)
        peak = e2e_workloads.traced_peak_of_run(name)
        assert peak <= ceiling, f"{name}: {peak} B"

    def test_duplicate_tables_hold_one_int_per_heard_flood(self, monkeypatch):
        campaigns = []

        def run_campaign(mix, seed, **overrides):
            campaigns.append(ChaosCampaign(
                CampaignSpec(mix=mix, seed=seed, **overrides)))
            return campaigns[-1].run()

        workloads = TestWorkloadCountCeiling.workloads
        monkeypatch.setattr(workloads, "run_campaign", run_campaign)
        workloads.build("grid_failover", 0, smoke=True).run()
        held = pairs = 0
        for campaign in campaigns:
            for node in campaign.nodes.values():
                table = node.routing_agent._seen
                held += sys.getsizeof(table)
                for origin, seqs in table.items():
                    held += sys.getsizeof(origin) + sys.getsizeof(seqs)
                    pairs += len(seqs)
        assert pairs > 5000
        assert held / pairs <= self.DEDUP_BYTES_PER_PAIR

    #: Bytes the group's three op logs hold per committed transfer: the
    #: logs' lists, the entries and their args tuples, each object once.
    #: 171 with one entry shared by the group; 459 while each backup
    #: rebuilt its own entry and args from the append frame.
    LOG_BYTES_PER_TRANSFER = 180

    #: Bytes the group's rid-result caches hold per applied command, per
    #: replica (``e2e_workloads.cache_bytes_per_command``), pinned at the
    #: measured value + 10 %: 45.1 on 3.11 and 3.12 as a rid -> index dict
    #: and one result slot per index; 60.3 on 3.10, whose dicts keep a
    #: hash beside every str key. 92.2 / 107.4 while every answer was a
    #: ``(result, index)`` tuple. Any other version is held to the largest.
    CACHE_BYTES_PER_COMMAND = {(3, 10): 66.3, (3, 11): 49.6, (3, 12): 49.6}

    def test_the_caches_hold_an_index_and_a_slot_per_command(self):
        ceiling = self.CACHE_BYTES_PER_COMMAND.get(
            sys.version_info[:2], max(self.CACHE_BYTES_PER_COMMAND.values()))
        held = e2e_workloads.cache_bytes_per_command()
        assert held <= ceiling, f"{held:.1f} B"

    @pytest.fixture(scope="class")
    def ledger(self):
        """``ledger_write``'s replicas after its smoke run, and the args
        tuple the client built for each rid."""
        built = {}
        submit = GroupClient._submit

        def recording(client, rid, message, **kwargs):
            built[rid] = message["args"]
            return submit(client, rid, message, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GroupClient, "_submit", recording)
            workload = TestWorkloadCountCeiling.workloads.build(
                "ledger_write", 0, smoke=True)
            workload.run()
        return workload.scenario.archetype.replicas, built

    def test_every_replica_logs_the_clients_command_once(self, ledger):
        replicas, built = ledger
        logs = [replica.log for replica in replicas.values()]
        commit = logs[0].commit_index
        assert commit > 300 and all(log.commit_index == commit for log in logs)
        for index in range(1, commit + 1):
            entry = logs[0].entry(index)
            assert all(log.entry(index) is entry for log in logs[1:])
            assert entry.args is built[entry.rid]

    #: Bytes each replica's applied-txid table holds per txid, pinned at the
    #: measured value + 10 %: 36.4 on 3.11 and 3.12 as a txid -> None dict,
    #: 51.6 on 3.10; 91.9 on all three as a set, which CPython grows
    #: four-fold. Any other version is held to the largest.
    APPLIED_BYTES_PER_TRANSFER = {(3, 10): 56.8, (3, 11): 40.0, (3, 12): 40.0}

    def test_the_applied_tables_hold_a_dense_row_per_txid(self, ledger):
        replicas, _built = ledger
        ceiling = self.APPLIED_BYTES_PER_TRANSFER.get(
            sys.version_info[:2],
            max(self.APPLIED_BYTES_PER_TRANSFER.values()))
        for node, replica in replicas.items():
            applied = replica.machine.applied_txids
            assert len(applied) > 300, node
            held = sys.getsizeof(applied) / len(applied)
            assert held <= ceiling, f"{node}: {held:.1f} B"

    def test_the_group_logs_hold_one_entry_per_transfer(self, ledger):
        replicas, _built = ledger
        logs = [replica.log._entries for replica in replicas.values()]
        held, counted = sum(map(sys.getsizeof, logs)), set()
        for obj in (item for entries in logs for entry in entries
                    for item in (entry, entry.args)):
            if id(obj) not in counted:
                counted.add(id(obj))
                held += sys.getsizeof(obj)
        transfers = sum(entry.name == "transfer" for entry in logs[0])
        assert transfers > 300
        assert held / transfers <= self.LOG_BYTES_PER_TRANSFER


class TestBytesPerNodeAndEvent:
    """What a built node and a pending event hold, in bytes.

    ``e2e_workloads.held_bytes_per`` counts, in a fresh child, what
    ``tracemalloc`` sees held per node of a 32x32 swarm grid and per
    pending ``schedule_at`` / ``call_later`` event (10 000 of them). They
    read 1 602 / 255 / 199 on 3.11 while every node built an emitter, a
    depletion closure and a medium subscription, and every event held a
    ``(fn, args)`` tuple (plus a separate handle object for
    ``schedule_at``); 587 / 159 / 151 with the node's emitter built on
    first use and the handle as the heap entry. 3.10 reads 637 / 155 /
    147. The queue's own slot for an event is not the event's: 8 B of the
    heap's list, or about 8.3 B of the sorted run's ``deque``, where these
    in-order ``schedule_at`` events wait (counted, they read 167.4 B).
    """

    CEILINGS = {("node", 32): 750, ("schedule_at", 10_000): 165,
                ("call_later", 10_000): 155}

    @pytest.mark.parametrize("kind, count", list(CEILINGS))
    def test_held_bytes_stay_under_their_ceiling(self, kind, count):
        held = e2e_workloads.held_bytes_per(kind, count)
        assert held <= self.CEILINGS[kind, count], f"{kind}: {held:.1f} B"


class TestPreScheduledRun:
    """A workload's pre-scheduled plan waits in the simulator's sorted run,
    not in its heap. ``swarm_beacon``'s smoke build lays out its 576
    beacons (12 x 12 nodes, 4 rounds) in time order with ``schedule_at``:
    all 576 are in the run and none is in the heap, which held all 576
    before the run existed, so a delivery pushed during the run sifts
    through a heap of one. Both drain with the run."""

    def test_the_beacons_wait_in_the_run_not_the_heap(self):
        workload = TestWorkloadCountCeiling.workloads.build(
            "swarm_beacon", 0, smoke=True)
        sim = workload.network.sim
        assert (len(sim._heap), len(sim._run)) == (0, 576)
        workload.run()
        assert (len(sim._heap), len(sim._run)) == (0, 0)


class TestColdStart:
    """What a process loads before its first event.

    A package loads its public names on first use (``repro._facade``), so a
    process compiles only the modules some import of its own reaches. A
    benchmark child imports ``repro.workloads`` and ``repro.netsim.chaos``
    (everything else its ``workloads.py`` names is under those): 91
    ``repro`` modules (CHANGES.md records how the count moved). The
    workloads then load nothing more inside their timed ``run()``: a module
    first imported there moves its compile cost
    from ``setup_s`` into ``ops_per_s`` (``grid_failover``'s replicas
    imported their election module so until it moved to import time). Nor
    does any workload load numpy: importing it cost ``swarm_beacon`` 12 MB
    of its 60 MB peak RSS and about 0.05 s of set-up.
    """

    MODULES = 91

    def test_a_benchmark_child_loads_only_what_it_imports(self):
        loaded = e2e_workloads.repro_modules_first_imported(
            "import repro.workloads, repro.netsim.chaos")
        assert len(loaded) <= self.MODULES

    @pytest.mark.parametrize("name", list(TestWorkloadCountCeiling.workloads.SIZES))
    def test_no_module_is_first_imported_inside_the_timed_run(self, name):
        first_imported_in_run = e2e_workloads.repro_modules_first_imported(
            "workload.run()", name, setup=(
                "from tests import e2e_workloads\n"
                "workload = e2e_workloads.load().build(sys.argv[1], 0,"
                " smoke=True)"))
        assert first_imported_in_run == []

    def test_no_workload_loads_numpy(self):
        assert e2e_workloads.repro_modules_first_imported(
            "from tests import e2e_workloads\n"
            "workloads = e2e_workloads.load()\n"
            "for name in workloads.SIZES:\n"
            "    workloads.build(name, 0, smoke=True).run()",
            package="numpy") == []


class TestQuorumWriteCallBudget:
    """Python-level calls inside ``src/repro`` per transmission of the
    replicated ledger (``telemetry_ledger:heavy_tail``, the benchmark's
    ``ledger_write`` at its smoke size).

    A committed transfer is 13.6 unicast transmissions between four pinned
    nodes over bare ``SimTransport``: cmd, two appends, two acks, the empty
    append that propagates the commit index and its acks, the reply,
    heartbeats and beacons. The count is the send routine, the reception
    routine, the frame's decode and sizing helpers and the handler.
    ``OpLog`` answers ``last_index`` from a stored field, so the run calls
    no ``last_index`` property.

    A perf change lowers ``BUDGET`` in the same diff; it is raised only
    with a note in CHANGES.md that says why.
    """

    BUDGET = 36.9

    def test_ledger_smoke_stays_within_budget(self):
        scenario = ScenarioRun(
            parse_spec("telemetry_ledger:heavy_tail", 0, horizon_s=60))
        cards = []
        calls = count_repro_calls(lambda: cards.append(scenario.run()))

        medium = scenario.archetype.network.medium
        assert cards[0]["ok"]
        assert medium.transmissions == 5047
        assert sum(calls.values()) / medium.transmissions <= self.BUDGET
        assert calls["last_index"] == 0

    def test_count_does_not_follow_the_string_hash(self):
        """A group client sorts its members in the order given, not in a
        set's: the set's order follows the string hash, and so did the
        number of ``Address.__lt__`` calls the sort made."""
        counts = {seed: e2e_workloads.scenario_calls(
            "telemetry_ledger:closed_loop", seed) for seed in (0, 1)}
        assert counts[0] == counts[1], counts
