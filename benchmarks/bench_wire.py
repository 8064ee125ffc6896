"""Zero-copy wire-path benchmarks: lazy frames vs the eager-codec era.

The experiment table regenerates the PR's headline claim: a flooding
chain forwarding by reference (cached :class:`WireFrame`, per-hop ttl
patch, zero-decode delivery) against an *eager baseline* agent that
re-creates the pre-frame code path — ``codec.encode(out.to_dict())`` on
every hop and a full decode at every receiver. The bulk-payload tier is
a hard gate: lazy must move at least ``_SPEEDUP_GATE``x the frames/sec
of the baseline.

The pytest-benchmark ops feed the BENCH_micro.json perf trajectory:

* ``test_wire_flood_chain_lazy`` — end-to-end chain throughput on the
  zero-copy path (the number the gate protects);
* ``test_wire_replication_fanout`` — encode-once append fan-out vs
  re-encoding per backup;
* ``test_wire_encoded_size[...]`` — the sizing walk, which is all the codec
  work a frame costs on the simulated path (an RPC call, a ledger append,
  a 1 KiB tuple).
"""

import time

import pytest
from conftest import emit

from repro.experiments import format_table
from repro.interop.codec import BinaryCodec
from repro.interop.frames import WireFrame
from repro.netsim import topology
from repro.netsim.medium import RadioProfile
from repro.routing.base import RoutingAgent
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.simnet import SimFabric

#: Lossless neighbors-only radio: the chain stays a true multi-hop line
#: (WIFI_80211 would drop frames; IDEAL_RADIO's range makes it a clique).
_CHAIN_RADIO = RadioProfile(
    name="bench-chain", bandwidth_bps=1e9, range_m=90.0, base_latency_s=0.0001,
)

_CHAIN_NODES = 16
_SPEEDUP_GATE = 3.0
#: Payload tiers: sensor reading, reconfiguration bundle, bulk transfer.
_PAYLOAD_TIERS = ((4096, "4KB"), (65536, "64KB"), (524288, "512KB"))
_GATE_TIER = 524288


class EagerCodecAgent(RoutingAgent):
    """The pre-frame baseline: encode every hop, decode every receive.

    Returning real bytes from ``_frame_for`` makes every downstream layer
    take the eager path — receivers get bytes, so ``try_decode_dict``
    runs a full decode and ``envelope.wire`` never caches anything.
    """

    def _frame_for(self, envelope):
        message = envelope.to_dict()
        message["t"] -= 1
        return self.codec.encode(message)


def _flood_chain(agent_cls, messages: int, payload: bytes):
    """Send ``messages`` end to end over a flooding chain; frames/sec."""
    network = topology.linear_chain(
        _CHAIN_NODES, spacing=60, radio_profile=_CHAIN_RADIO
    )
    fabric = SimFabric(network)
    agents = {
        node_id: agent_cls(fabric, node_id, FloodingRouter())
        for node_id in fabric.network.node_ids()
    }
    nodes = sorted(agents, key=lambda node_id: int(node_id[1:]))
    src, dst = nodes[0], nodes[-1]
    src_port = agents[src].open_port("app")
    dst_port = agents[dst].open_port("app")
    received = []
    dst_port.set_receiver(lambda source, data: received.append(data))
    start = time.perf_counter()
    for _ in range(messages):
        src_port.send(Address(dst, "app"), payload)
        network.sim.run()
    elapsed = time.perf_counter() - start
    frames = sum(a.forwarded + a.originated for a in agents.values())
    assert len(received) == messages, f"lost {messages - len(received)} messages"
    return frames, frames / elapsed


def run_flood_comparison(messages: int = 30, repeats: int = 3):
    """Lazy vs eager frames/sec per payload tier; returns (rows, speedups)."""
    rows = []
    speedups = {}
    for size, label in _PAYLOAD_TIERS:
        payload = b"x" * size
        best = {}
        frames = 0
        for agent_cls in (RoutingAgent, EagerCodecAgent):
            # Best-of-N damps scheduler noise; the virtual-time workload
            # itself is deterministic per configuration.
            fps = 0.0
            for _ in range(repeats):
                frames, run_fps = _flood_chain(agent_cls, messages, payload)
                fps = max(fps, run_fps)
            best[agent_cls] = fps
        speedup = best[RoutingAgent] / best[EagerCodecAgent]
        speedups[size] = speedup
        rows.append({
            "payload": label,
            "frames": frames,
            "eager_fps": round(best[EagerCodecAgent]),
            "lazy_fps": round(best[RoutingAgent]),
            "speedup": round(speedup, 2),
        })
    return rows, speedups


def test_flood_chain_speedup_gate(benchmark):
    # Five rounds: one is a single sample of a 0.7 s run, which one
    # garbage collection or scheduler hiccup decides.
    rows, speedups = benchmark.pedantic(run_flood_comparison, rounds=5, iterations=1)
    emit(format_table(
        rows,
        title=f"Flooding chain ({_CHAIN_NODES} nodes): zero-copy vs eager codec",
    ))
    assert speedups[_GATE_TIER] >= _SPEEDUP_GATE, (
        f"zero-copy flood speedup {speedups[_GATE_TIER]:.2f}x is below the "
        f"{_SPEEDUP_GATE}x gate at the bulk tier"
    )


def test_wire_flood_chain_lazy(benchmark):
    payload = b"x" * 16384

    def chain():
        return _flood_chain(RoutingAgent, 10, payload)[0]

    # Flood dedup: every node broadcasts each message exactly once.
    assert benchmark(chain) == _CHAIN_NODES * 10


def test_wire_replication_fanout(benchmark):
    codec = BinaryCodec()
    record = {"op": "append", "slot": 900001, "cmd": ["write", "k37", "v" * 64]}

    def fan_out(backups=8):
        frame = WireFrame(record, codec)
        return sum(len(bytes(frame)) for _ in range(backups))

    assert benchmark(fan_out) == 8 * len(codec.encode(record))


_SIZED_MESSAGES = {
    "rpc_call": {"op": "call", "rid": "rpc:leaf0:api.c-1234", "method": "echo",
                 "params": {"n": 512}},
    "ledger_append": {"op": "append", "term": 3, "slot": 900001, "commit": 900000,
                      "cmd": ["transfer", "acct-17", "acct-42", 1250, "rid-88123"]},
    "tuple_1kib": {"op": "out", "rid": "ts:leaf0:ts.pub-77",
                   "tuple": ["chat", 77, "x" * 1024]},
}


@pytest.mark.parametrize("name", sorted(_SIZED_MESSAGES))
def test_wire_encoded_size(benchmark, name):
    codec = BinaryCodec()
    message = _SIZED_MESSAGES[name]
    assert benchmark(codec.encoded_size, message) == len(codec.encode(message))
