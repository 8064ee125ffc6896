"""The swarm-scale curve: events/sec at 100, 1k, 10k and 100k nodes.

Driven by ``run_benchmarks.py --scale``. Each point up to 10k builds one
world, runs a staggered-beacon workload on it, and reports:

* ``ns_per_event``, stored as ``median_ns`` so the regression harness's
  ``compare()`` / ``--normalize-skew`` machinery applies unchanged to
  ``BENCH_scale.json``;
* whether its **delivery trace** (sha256 over every ``(time, receiver,
  source)`` delivery, in delivery order) is the pinned one in
  :data:`TRACE_SHA256` — the correctness anchor of the position index.

The workload is deliberately mean to the position index: a ``side x side``
grid at 30 m spacing under an 802.11-derived swarm profile (100 m range →
36 in-range neighbors per interior node, 1% loss, no contention jitter so
same-tick broadcast deliveries batch into single queue entries), every
node broadcasting one beacon per round at a fully staggered — therefore
fresh — timestamp, and one node in ten drifting under
:class:`LinearMobility`. An *event* is one transmission or one delivery, so
ns/event is comparable across world sizes and machines.

The 100k point (:data:`POINT_100K`) is the single-process answer to "how
far does one core go": one round, no delivery trace (at ~3.6 M deliveries
the trace would be most of the memory), with the process's peak RSS and
``ns_ratio_vs_10k`` beside its events/sec. The ratio divides by a second
10k-node run at the 100k point's own rounds and tracing, not by the
two-round traced curve point, so both sides do the same work per node. It
is one sample of each, not the gate a claim about the 100k point needs.
The point runs last, so that peak is its own, and ``--quick`` skips it.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.netsim.medium import RadioProfile
from repro.netsim.mobility import LinearMobility
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.topology import grid as topology_grid

#: (label, grid side) — 100, 1024, and 10000 nodes.
CURVE = [("scale_100", 10), ("scale_1k", 32), ("scale_10k", 100)]

#: (label, grid side) — 99 856 nodes.
POINT_100K = ("scale_100k", 316)

#: (label, rounds) -> the delivery-trace sha256 every run must reproduce.
#: ``--quick`` runs one round, a full run two.
TRACE_SHA256 = {
    ("scale_100", 1):
        "d9d2fdd3699c13723406ec00fe55367887bad2875cfd75e82b6bbf734fe7a136",
    ("scale_1k", 1):
        "ef0eeeafcae6090f922c4465a7092cef29edb47092703e6f7b0cf1f617b88736",
    ("scale_10k", 1):
        "315225bfdd3f9995f5a24e4faa2e5dbf19144981e3b0826979a8284621c6f3e6",
    ("scale_100", 2):
        "9f73223f34481b5d45fb9f4a030ff1bd583a771cb3ef4ba34604a9fe34f8aeab",
    ("scale_1k", 2):
        "c88771d52cddb23b7887980877974fb31bb02ff5ce5ca2498c11fe6dfa401f3f",
    ("scale_10k", 2):
        "a434c9da79f59d15b51737bcc240f5a82698ef06d0c0217384a223d1b648907e",
}

#: 802.11 rates/range/loss with no contention jitter — a slotted swarm MAC.
#: Zero contention means every receiver of a broadcast shares one delivery
#: timestamp, which is what lets the simulator fold a 36-receiver broadcast
#: into a single batched queue entry (the other half of the swarm hot path).
SWARM_PROFILE = RadioProfile(
    name="802.11-swarm", bandwidth_bps=11e6, range_m=100.0,
    base_latency_s=0.001, loss_probability=0.01, contention_window_s=0.0,
)

SPACING = 30.0
#: Beacons are fully staggered — every send lands on a fresh timestamp, as
#: unsynchronized swarm nodes do.
ROUND_PERIOD = 2.0
MOBILE_EVERY = 10
DRIFT = (1.0, 0.5)  # m/s; slow enough to stay in-cell over a short run


def run_world(side: int, rounds: int, seed: int = 0,
              trace: bool = True) -> Dict[str, object]:
    """Build a ``side x side`` world, run the beacon workload, measure it.

    Returns events (transmissions + deliveries), wall seconds, ns/event
    and the sha256 delivery-trace digest (None without ``trace``).
    """
    network = topology_grid(side, side, spacing=SPACING,
                            radio_profile=SWARM_PROFILE, seed=seed)
    sim = network.sim
    medium = network.medium
    now = sim.now
    # Deliveries are recorded as raw tuples and serialized into the sha256
    # only after the clock stops, so the trace costs the timed region one
    # list-append per delivery rather than an f-string + hash update.
    # A packet carries no id, so the trace identifies packets by their
    # source (source + time is unique here).
    deliveries: list = []
    record = deliveries.append

    def on_packet(node, packet):
        record((now(), node.node_id, packet.source))

    handler = on_packet if trace else (lambda node, packet: None)
    nodes = network.nodes()
    for index, node in enumerate(nodes):
        node.set_packet_handler(handler)
        if index % MOBILE_EVERY == 0:
            node.set_mobility(LinearMobility(
                start=node.position, velocity=DRIFT, start_time=0.0,
            ))

    def beacon(node):
        packet = Packet(source=node.node_id, destination=BROADCAST,
                        payload=b"b", payload_bytes=16)
        medium.transmit(node.node_id, packet)

    step = ROUND_PERIOD * 0.8 / len(nodes)
    for round_index in range(rounds):
        base = 0.05 + round_index * ROUND_PERIOD
        for index, node in enumerate(nodes):
            sim.schedule_at(base + index * step, beacon, node)

    start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - start
    digest = hashlib.sha256()
    for when, receiver, source in deliveries:
        digest.update(f"{when!r}|{receiver}|{source};".encode())
    events = medium.transmissions + medium.deliveries
    return {
        "nodes": side * side,
        "events": events,
        "wall_s": round(wall_s, 4),
        "ns_per_event": round(wall_s / events * 1e9, 1) if events else 0.0,
        "trace_sha256": digest.hexdigest() if trace else None,
        "deliveries": medium.deliveries,
    }


def _op(point: Dict[str, object], rounds: int) -> Dict[str, object]:
    wall_s = point["wall_s"]
    return {
        "median_ns": point["ns_per_event"],
        "rounds": rounds,
        "nodes": point["nodes"],
        "events": point["events"],
        "wall_s": wall_s,
        "events_per_sec": round(point["events"] / wall_s) if wall_s else 0,
    }


def run_curve(quick: bool = False) -> Tuple[Dict[str, dict], bool]:
    """Run the full curve; return (ops for BENCH_scale.json, all_traces_match).

    Each op's ``median_ns`` is its ns/event; the trace verdict rides along
    as an extra key (``compare()`` only reads ``median_ns``, so it is inert
    to gating).
    """
    rounds = 1 if quick else 2
    ops: Dict[str, dict] = {}
    all_match = True
    for label, side in CURVE:
        point = run_world(side, rounds)
        match = point["trace_sha256"] == TRACE_SHA256[label, rounds]
        all_match = all_match and match
        ops[label] = dict(_op(point, rounds), trace_match=match)
        print(f"{label:<10} {point['nodes']:>6} nodes  "
              f"{point['events']:>9} events  "
              f"{point['ns_per_event'] / 1e3:>8.2f} us/ev  "
              f"trace {'OK' if match else 'MISMATCH'}")
    label, side = POINT_100K
    if quick:
        # Present, so the gate does not report it dropped; no median, so
        # it is not compared.
        ops[label] = {"median_ns": None, "skipped": "quick"}
        print(f"{label:<10} (skipped under --quick)")
        return ops, all_match
    reference = run_world(dict(CURVE)["scale_10k"], 1, trace=False)
    point = run_world(side, 1, trace=False)
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ratio = round(point["ns_per_event"] / reference["ns_per_event"], 2)
    ops[label] = dict(_op(point, 1), peak_rss_mb=round(peak_mb, 1),
                      ns_ratio_vs_10k=ratio)
    print(f"{label:<10} {point['nodes']:>6} nodes  "
          f"{point['events']:>9} events  "
          f"{point['ns_per_event'] / 1e3:>8.2f} us/ev  "
          f"peak RSS {peak_mb:.0f} MB  {ratio:.2f}x the 10k point's ns/event")
    return ops, all_match


if __name__ == "__main__":
    _, ok = run_curve(quick="--quick" in sys.argv)
    raise SystemExit(0 if ok else 3)
