"""Micro-benchmarks of the hot paths.

These time the library's inner loops the way pytest-benchmark is designed
to: many rounds of a small operation. Useful for catching performance
regressions in the codecs, the markup parser, feasible-set enumeration, the
scheduler, the simulator core, and the tuple space's keyed store. (The
paper's claims are not benches: ``python -m repro.experiments`` runs and
judges those.)
"""

import pytest

from repro.core.feasibility import minimal_feasible_sets
from repro.core.sensors import SensorInfo
from repro.interop.codec import BinaryCodec, SmlCodec
from repro.interop.sml import parse, serialize
from repro.netsim.medium import RadioProfile
from repro.netsim.mobility import LinearMobility
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import grid as topology_grid
from repro.qos.spec import ConsumerQoS, SupplierQoS, score_match
from repro.scheduling.policies import EdfPolicy
from repro.scheduling.scheduler import TaskScheduler
from repro.scheduling.task import ScheduledTask
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.inmemory import InMemoryFabric

SAMPLE_MESSAGE = {
    "op": "call", "rid": "rpc:node17:svc-142", "method": "record",
    "params": {"patient": "p-113", "vitals": {"bp": 121.5, "hr": 72,
                                              "spo2": 0.98},
               "flags": ["routine", "ward3"], "seq": 4711},
}


def test_binary_codec_round_trip(benchmark):
    codec = BinaryCodec()

    def round_trip():
        return codec.decode(codec.encode(SAMPLE_MESSAGE))

    assert benchmark(round_trip) == SAMPLE_MESSAGE


def test_sml_codec_round_trip(benchmark):
    codec = SmlCodec()

    def round_trip():
        return codec.decode(codec.encode(SAMPLE_MESSAGE))

    assert benchmark(round_trip) == SAMPLE_MESSAGE


def test_sml_parse(benchmark):
    document = serialize(SmlCodec()._to_element(SAMPLE_MESSAGE), indent="  ")
    result = benchmark(parse, document)
    assert result.tag == "dict"


def test_qos_match_scoring(benchmark):
    supplier = SupplierQoS(reliability=0.93, availability=0.99,
                           expected_latency_s=0.02)
    consumer = ConsumerQoS(min_reliability=0.9, max_latency_s=0.1)

    result = benchmark(score_match, supplier, consumer)
    assert result is not None


def test_feasible_set_enumeration(benchmark):
    sensors = [
        SensorInfo(f"s{i}", {f"v{i % 3}": 0.6 + 0.04 * (i % 8)},
                   active_power_w=0.01, energy_j=1.0)
        for i in range(12)
    ]
    requirements = {"v0": 0.9, "v1": 0.85, "v2": 0.8}

    result = benchmark(minimal_feasible_sets, sensors, requirements)
    assert result


def test_simulator_event_throughput(benchmark):
    # 1000 fire-and-forget events landing on one timestamp, each its own
    # ``call_later`` entry: a heap push and pop per event, no handle. (The
    # medium batches a broadcast's same-tick receivers into one entry by
    # handing its delivery call the list.)
    def run_events():
        sim = Simulator()
        count = [0]

        def bump():
            count[0] += 1

        for _ in range(1000):
            sim.call_later(0.001, bump)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 1000


def test_simulator_chained_events(benchmark):
    # The chained counterpart: 1000 strictly sequential events, each
    # scheduled by its predecessor through ``schedule``, so every event
    # also builds its cancellable handle.
    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 1000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 1000


@pytest.mark.parametrize("side,center", [(12, "n5_5"), (32, "n16_16")],
                         ids=["144n", "1024n"])
def test_medium_neighbor_scan(benchmark, side, center):
    # 30 m spacing, 100 m radio range: every broadcast used to pay a
    # distance check against all n-1 other nodes; the spatial index
    # confines the scan to the 3x3 cell block around the sender, so the
    # answer (36 in-range neighbors of an interior node) should cost the
    # same at 144 nodes as at 1024 — that flatness is what this pair of
    # points gates. The center node itself drifts, and a mobile origin
    # has no neighbour memo, so every call asks the index.
    network = topology_grid(side, side, spacing=30.0)
    medium = network.medium
    origin = network.node(center)
    origin.set_mobility(LinearMobility(
        start=origin.position, velocity=(0.1, 0.0), start_time=0.0))

    def broadcast_scan():
        return len(medium.neighbors_of(center))

    assert benchmark(broadcast_scan) == 36
    assert not medium._static_neighbourhoods


def test_medium_neighbor_memo_hit(benchmark):
    # The same question in an all-static world: after the first call the
    # answer is the remembered list filtered by liveness, no index query.
    network = topology_grid(32, 32, spacing=30.0)
    medium = network.medium

    def remembered_scan():
        return len(medium.neighbors_of("n16_16"))

    assert benchmark(remembered_scan) == 36
    assert "n16_16" in medium._static_neighbourhoods


#: ``swarm_beacon``'s radio without its loss: 802.11 rates and range, no
#: contention jitter, so every receiver of a broadcast shares one delivery
#: time and the broadcast is one batched queue entry.
SWARM_RADIO = RadioProfile(
    name="802.11-swarm", bandwidth_bps=11e6, range_m=100.0,
    base_latency_s=0.001, loss_probability=0.0, contention_window_s=0.0,
)


@pytest.mark.parametrize("spacing,receivers", [(30.0, 36), (10.0, 316)],
                         ids=["36rx", "316rx"])
def test_medium_broadcast_delivery(benchmark, spacing, receivers):
    # One broadcast from the centre of a 32x32 grid, heard by every node
    # within the 100 m range: 36 at 30 m spacing, 316 at 10 m. The pair
    # gates the per-receiver cost of the medium's one reception loop.
    network = topology_grid(32, 32, spacing=spacing, radio_profile=SWARM_RADIO)
    medium = network.medium
    packet = Packet(
        source="n16_16", destination=BROADCAST, payload=b"x", payload_bytes=32
    )

    def transmit_and_drain():
        before = medium.deliveries
        medium.transmit("n16_16", packet)
        network.sim.run()
        return medium.deliveries - before

    assert benchmark(transmit_and_drain) == receivers


def test_scheduler_throughput(benchmark):
    def run_scheduler():
        sim = Simulator()
        scheduler = TaskScheduler(sim, EdfPolicy())
        for i in range(4):
            scheduler.submit(ScheduledTask(
                f"t{i}", cost_s=0.01, deadline_s=0.1, period_s=0.1,
            ))
        sim.run_until(10.0)
        return scheduler.completed

    assert benchmark(run_scheduler) == 400


STORED = 1000


def _loaded_space():
    fabric = InMemoryFabric()
    server = TupleSpaceServer(fabric.endpoint("space", "ts"))
    client = TupleSpaceClient(
        fabric.endpoint("reader", "ts"), server.transport.local_address
    )
    for key in range(STORED):
        client.out("chat", key, "x" * 32)
    fabric.run()
    assert len(server) == STORED
    return fabric, server, client


def test_tuplespace_rd_at_1k(benchmark):
    """One keyed ``rd`` of the newest of 1 000 stored tuples, request to
    fulfilled promise: the case a scan of the store answers last."""
    fabric, server, client = _loaded_space()

    def read_newest():
        promise = client.rd("chat", STORED - 1, None)
        fabric.run()
        return promise.result()

    assert benchmark(read_newest) == ["chat", STORED - 1, "x" * 32]
    assert len(server) == STORED


def test_tuplespace_inp_drain_1k(benchmark):
    """Take all 1 000 tuples by key, newest first, so every take removes
    from the far end of the store and the index must shrink with it."""

    def drain(fabric, server, client):
        takes = [client.inp("chat", key, None)
                 for key in reversed(range(STORED))]
        fabric.run()
        assert len(server) == 0
        return takes

    takes = benchmark.pedantic(
        drain, setup=lambda: (_loaded_space(), {}), rounds=10
    )
    assert all(take.result() is not None for take in takes)
