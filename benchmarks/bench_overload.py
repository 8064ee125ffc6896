"""Overload-protection benchmark: goodput and tail latency under a flash crowd.

One link (8 kbps paced capacity) is offered a 5x flash crowd (250-byte
messages at 20/s for 20 virtual seconds) under three configurations:

* ``unprotected`` — an effectively unbounded send queue and no admission:
  every message is eventually delivered, but the backlog grows without
  bound and delivery latency is dominated by time spent queued (classic
  congestion collapse in miniature);
* ``paced`` — the bounded :class:`PacedTransport` queue alone: memory and
  queueing delay are capped at ``max_queue`` messages, the overflow is
  shed explicitly;
* ``admitted`` — an :class:`AdmissionController` in front of the pacer,
  matched to the link's sustainable rate: refusals happen *before* the
  queue, so the few admitted messages barely wait at all.

The shapes that must hold (all timing is virtual, so rows are
deterministic): protection does not cost goodput — the link is saturated
either way — but it turns an unbounded latency/memory profile into a
bounded one. The p99 ordering ``admitted < paced << unprotected`` and the
queue-depth bound are asserted, and the rows are emitted as the
experiment table.
"""

from conftest import emit

from repro.experiments import format_table
from repro.obs.metrics import nearest_rank
from repro.qos import AdmissionController, PriorityClass
from repro.qos.bandwidth import BandwidthAllocator
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.pacing import PacedTransport

_PAYLOAD_BYTES = 250           # 2000 bits per message
_RATE_BPS = 8000.0             # sustains 4 msg/s
_OFFER_RATE = 20.0             # the crowd: 5x the sustainable rate
_OFFER_WINDOW_S = 20.0
_BOUNDED_QUEUE = 16
_DEADLINE_S = 200.0


def run_config(name, max_queue, with_admission):
    fabric = InMemoryFabric(latency_s=0.001)
    sim = fabric.sim
    allocator = BandwidthAllocator(10000.0, burst_s=1.0)
    paced = PacedTransport(
        fabric.endpoint("crowd", "bulk"), allocator, "crowd",
        rate_bps=_RATE_BPS, max_queue=max_queue,
    )
    sink = fabric.endpoint("sink", "bulk")
    offer_times = {}
    latencies = []

    def receive(source, payload):
        latencies.append(sim.now() - offer_times[int(payload[:6])])

    sink.set_receiver(receive)
    admission = None
    if with_admission:
        # Guarantee exactly what the link sustains (4 msg/s); the refusal
        # happens at the edge instead of in (or past) the queue.
        admission = AdmissionController(
            sim.now, capacity_per_s=5.0,
            classes=[PriorityClass("crowd", 4.0)],
        )
    counts = {"offered": 0, "refused": 0}

    def offer(index):
        counts["offered"] += 1
        if admission is not None and admission.try_admit("crowd") is not None:
            counts["refused"] += 1
            return
        offer_times[index] = sim.now()
        paced.send(Address("sink", "bulk"),
                   f"{index:06d}".encode().ljust(_PAYLOAD_BYTES, b"."))

    total = int(_OFFER_RATE * _OFFER_WINDOW_S)
    for index in range(total):
        sim.schedule_at(index / _OFFER_RATE, offer, index)
    sim.run_until(_OFFER_WINDOW_S)
    while paced.queue_depth > 0 and sim.now() < _DEADLINE_S:
        sim.run_until(sim.now() + 1.0)
    sim.run_until(sim.now() + 1.0)  # let in-flight deliveries land
    elapsed = sim.now()
    paced.close()
    latencies.sort()
    return {
        "config": name,
        "offered": counts["offered"],
        "refused": counts["refused"],
        "delivered": len(latencies),
        "shed": paced.shed,
        "max_depth": paced.max_queue_depth,
        "p50_s": round(nearest_rank(latencies, 0.50), 4),
        "p99_s": round(nearest_rank(latencies, 0.99), 4),
        "virtual_s": round(elapsed, 2),
        "goodput_per_vsec": round(len(latencies) / elapsed, 2),
    }


def run_flash_crowd():
    return [
        run_config("unprotected", max_queue=100_000, with_admission=False),
        run_config("paced", max_queue=_BOUNDED_QUEUE, with_admission=False),
        run_config("admitted", max_queue=_BOUNDED_QUEUE, with_admission=True),
    ]


def test_protection_bounds_tail_latency_without_losing_goodput(benchmark):
    rows = benchmark.pedantic(run_flash_crowd, rounds=5, iterations=1)
    emit(format_table(rows, "Overload: flash crowd with/without protection"))
    by_config = {row["config"]: row for row in rows}
    unprotected = by_config["unprotected"]
    paced = by_config["paced"]
    admitted = by_config["admitted"]
    # Unprotected: everything is delivered eventually, but the backlog is
    # unbounded and the tail is dominated by queueing delay.
    assert unprotected["delivered"] == unprotected["offered"]
    assert unprotected["max_depth"] > 4 * _BOUNDED_QUEUE
    # Protection bounds memory (the queue cap) and the tail with it.
    assert paced["max_depth"] <= _BOUNDED_QUEUE
    assert paced["p99_s"] < unprotected["p99_s"] / 3
    assert admitted["p99_s"] < paced["p99_s"]
    # The link is saturated either way: goodput is the pacing rate, so
    # protection sheds load without giving up throughput.
    assert paced["goodput_per_vsec"] > 0.8 * unprotected["goodput_per_vsec"]
    assert admitted["goodput_per_vsec"] > 0.8 * unprotected["goodput_per_vsec"]
