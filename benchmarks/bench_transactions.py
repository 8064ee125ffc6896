"""E6 — interaction paradigms on an identical workload (Section 3.6).

Shape that must hold: everyone delivers everything; one-way RPC halves
sync-RPC's on-air traffic (no replies); broker-based paradigms pay the
extra hop; shared-object reads are nearly free on the air once cached —
the "should not over-burden the network ... should provide asynchronous
connections" claim, quantified.
"""

from conftest import emit

from repro.experiments import format_table
from repro.experiments.exp_transactions import N_ITEMS, run, run_streaming
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.inmemory import InMemoryFabric

STORED = 1000


def test_paradigm_comparison(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(rows, f"E6: {N_ITEMS} items, producer -> consumer"))
    by_paradigm = {row["paradigm"]: row for row in rows}
    for row in rows:
        assert row["delivered"] == N_ITEMS, row
    # One-way RPC sends half the messages of request/response RPC.
    assert (by_paradigm["rpc(one-way)"]["messages"]
            <= 0.6 * by_paradigm["rpc(sync)"]["messages"])
    # Broker paradigms relay through a third node: more air traffic than
    # direct one-way RPC.
    assert (by_paradigm["message-queue"]["bytes_on_air"]
            > by_paradigm["rpc(one-way)"]["bytes_on_air"])
    assert (by_paradigm["publish-subscribe"]["bytes_on_air"]
            > by_paradigm["rpc(one-way)"]["bytes_on_air"])
    # Cached shared-object reads barely touch the network.
    assert (by_paradigm["shared-objects(reads)"]["bytes_on_air"]
            < 0.05 * by_paradigm["rpc(sync)"]["bytes_on_air"])
    # Only synchronous RPC blocks its producer.
    blockers = [row["paradigm"] for row in rows if row["producer_blocks"] == "yes"]
    assert blockers == ["rpc(sync)"]


def test_streaming_jitter_buffer(benchmark):
    """E6b: continuity rises monotonically with playout delay, and the
    roomiest buffer is glitch-free — the latency/continuity tradeoff."""
    rows = benchmark.pedantic(run_streaming, rounds=1, iterations=1)
    emit(format_table(rows, "E6b: 25 fps stream over a 150 ms-jitter channel"))
    continuities = [row["continuity"] for row in rows]
    assert continuities == sorted(continuities)
    assert continuities[-1] > 0.99
    assert rows[0]["glitches"] > rows[-1]["glitches"]
    waits = [row["mean_buffer_wait_s"] for row in rows]
    assert waits == sorted(waits)


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
