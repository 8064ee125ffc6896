"""The swarm-scale curve: events/sec at 100, 1k, 10k and 100k nodes.

Driven by ``run_benchmarks.py --scale``. Each point up to 10k builds the
same world twice — once per medium backend — runs an identical
staggered-beacon workload, and reports:

* ``ns_per_event`` for the **vectorized** backend (stored as ``median_ns``
  so the regression harness's ``compare()`` / ``--normalize-skew``
  machinery applies unchanged to ``BENCH_scale.json``);
* the scalar backend's ``ns_per_event`` and the resulting speedup;
* whether the two backends produced **byte-identical delivery traces**
  (sha256 over every ``(time, receiver, source, packet_id)`` delivery, in
  delivery order) — the correctness anchor for the whole vectorization.

The workload is deliberately mean to the position index: a ``side x side``
grid at 30 m spacing under an 802.11-derived swarm profile (100 m range →
36 in-range neighbors per interior node, 1% loss, no contention jitter so
same-tick broadcast deliveries batch into single queue entries), every
node broadcasting one beacon per round at a fully staggered — therefore
fresh — timestamp, and one node in ten drifting under
:class:`LinearMobility`. An *event* is one transmission or one delivery —
backend-independent work units, so ns/event is comparable across backends
and machines.

The 100k point (:data:`POINT_100K`) is the single-process answer to "how
far does one core go": the vector backend only, one round, no delivery
trace (at ~3.6 M deliveries the trace would be most of the memory), with
the process's peak RSS beside its events/sec. It runs last, so that peak
is its own, and ``--quick`` skips it.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.netsim.medium import RadioProfile
from repro.netsim.mobility import LinearMobility
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim.topology import grid as topology_grid

#: (label, grid side) — 100, 1024, and 10000 nodes.
CURVE = [("scale_100", 10), ("scale_1k", 32), ("scale_10k", 100)]

#: (label, grid side) — 99 856 nodes, vector backend only.
POINT_100K = ("scale_100k", 316)

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
#: unsynchronized swarm nodes do. Each fresh timestamp forces a kinematics
#: refresh of every mobile node, which is exactly the cost the vector
#: backend collapses to one array expression.
ROUND_PERIOD = 2.0
MOBILE_EVERY = 10
DRIFT = (1.0, 0.5)  # m/s; slow enough to stay in-cell over a short run


def run_world(side: int, rounds: int, vectorized: Optional[bool],
              seed: int = 0, trace: bool = True) -> Dict[str, object]:
    """Build a ``side x side`` world, run the beacon workload, measure it.

    Returns events (transmissions + deliveries), wall seconds, ns/event,
    the sha256 delivery-trace digest (None without ``trace``), and the
    backend actually used.
    """
    network = topology_grid(side, side, spacing=SPACING,
                            radio_profile=SWARM_PROFILE, seed=seed,
                            vectorized=vectorized)
    sim = network.sim
    medium = network.medium
    now = sim.now
    # Deliveries are recorded as raw tuples and serialized into the sha256
    # only after the clock stops, so the trace costs the timed region one
    # list-append per delivery rather than an f-string + hash update.
    # NOTE: packet_id is a process-global counter (the second backend's run
    # would start 100 higher), so the trace identifies packets by their
    # run-local source instead (source + time is unique in this workload).
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
        "vectorized": medium.vectorized,
    }


def run_curve(quick: bool = False) -> Tuple[Dict[str, dict], bool]:
    """Run the full curve; return (ops for BENCH_scale.json, all_traces_match).

    Each op's ``median_ns`` is the vectorized backend's ns/event; scalar
    reference numbers and the trace verdict ride along as extra keys
    (``compare()`` only reads ``median_ns``, so they are inert to gating).
    """
    rounds = 1 if quick else 2
    ops: Dict[str, dict] = {}
    all_match = True
    for label, side in CURVE:
        vector = run_world(side, rounds, vectorized=None)
        vector_ns = vector["ns_per_event"]
        op = {
            "median_ns": vector_ns,
            "rounds": rounds,
            "nodes": vector["nodes"],
            "events": vector["events"],
            "wall_s": vector["wall_s"],
            "events_per_sec": round(vector["events"] / vector["wall_s"])
            if vector["wall_s"] else 0,
            "vector_backend_used": vector["vectorized"],
        }
        # The scalar reference exists to prove trace equality and record the
        # speedup; at 10k nodes it costs ~10x the vectorized run's wall
        # time, so quick (CI) runs check equality at 100/1k only and leave
        # the 10k reference to full baseline refreshes.
        if quick and side * side > 2000:
            op["scalar_ns_per_event"] = None
            op["speedup_vs_scalar"] = None
            op["trace_match"] = "skipped-quick"
            scalar_text = f"{'(skipped)':>12}"
            status = "SKIP"
        else:
            scalar = run_world(side, rounds, vectorized=False)
            match = vector["trace_sha256"] == scalar["trace_sha256"]
            all_match = all_match and match
            scalar_ns = scalar["ns_per_event"]
            op["scalar_ns_per_event"] = scalar_ns
            op["speedup_vs_scalar"] = (
                round(scalar_ns / vector_ns, 2) if vector_ns else 0.0
            )
            op["trace_match"] = match
            scalar_text = f"{scalar_ns / 1e3:>8.1f} us/ev"
            status = "OK " if match else "MISMATCH"
        ops[label] = op
        print(f"{label:<10} {vector['nodes']:>6} nodes  "
              f"{vector['events']:>9} events  "
              f"vector {vector_ns / 1e3:>8.1f} us/ev  "
              f"scalar {scalar_text}  "
              f"trace {status}")
    label, side = POINT_100K
    if quick:
        # Present, so the gate does not report it dropped; no median, so
        # it is not compared.
        ops[label] = {"median_ns": None, "skipped": "quick"}
        print(f"{label:<10} (skipped under --quick)")
        return ops, all_match
    point = run_world(side, 1, vectorized=None, trace=False)
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops[label] = {
        "median_ns": point["ns_per_event"],
        "rounds": 1,
        "nodes": point["nodes"],
        "events": point["events"],
        "wall_s": point["wall_s"],
        "events_per_sec": round(point["events"] / point["wall_s"])
        if point["wall_s"] else 0,
        "peak_rss_mb": round(peak_mb, 1),
        "vector_backend_used": point["vectorized"],
    }
    print(f"{label:<10} {point['nodes']:>6} nodes  "
          f"{point['events']:>9} events  "
          f"vector {point['ns_per_event'] / 1e3:>8.1f} us/ev  "
          f"peak RSS {peak_mb:.0f} MB")
    return ops, all_match


if __name__ == "__main__":
    _, ok = run_curve(quick="--quick" in sys.argv)
    raise SystemExit(0 if ok else 3)
