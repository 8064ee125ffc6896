"""Replication benchmarks: read scaling with backups, write overhead.

Two shapes that must hold (all timing is *virtual*, so rows are
deterministic per configuration):

* Relaxed ("any"-mode) reads fan out over the backups, so aggregate read
  throughput scales with the number of backups — each member models a
  per-request service time (``service_delay_s``), and more servers means
  more service capacity. A single-member group is the degenerate
  baseline: every read serializes through one queue.
* Quorum-committed writes serialize through the primary's service queue
  regardless of group size; replication adds one pipelined append round
  trip, not a per-member slowdown, so the write-throughput penalty of a
  3- or 5-way group over a single member stays a small constant factor.

Each row is timed over five rounds (one round is a few tens of ms: a single
garbage collection would be the measurement) and printed with what one
operation costs in Python-level ``src/repro`` calls — exact, unlike the
median beside it. The write rows also print the ``tracemalloc`` bytes a
group still holds per committed write: its logs, rid-result caches and
state, as exact as the call count.
"""

import gc
import tracemalloc

from conftest import emit

from repro.experiments import format_table
from repro.obs.profiler import count_repro_calls
from repro.replication.client import GroupClient
from repro.replication.replica import ReplicationParams, deploy_group
from repro.replication.services import KVMachine
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric

#: Per-request service time at each member: the resource that backup
#: fan-out multiplies.
_SERVICE_DELAY_S = 0.002

_PARAMS = ReplicationParams(
    hb_interval_s=0.5,
    hb_timeout_multiplier=3.0,
    beacon_interval_s=0.5,
    write_timeout_s=4.0,
    service_delay_s=_SERVICE_DELAY_S,
)


class _Group:
    """One replica group + client on a private virtual-time fabric."""

    def __init__(self, n_members: int, port: str = "kv"):
        self.fabric = InMemoryFabric(latency_s=0.0005)
        node_ids = [f"r{i}" for i in range(n_members)]
        self.replicas = deploy_group(
            lambda node, p: self.fabric.endpoint(node, p),
            node_ids, KVMachine, port=port, params=_PARAMS,
        )
        self.client = GroupClient(
            self.fabric.endpoint("cli", "c"),
            [Address(node, port) for node in node_ids],
            request_timeout_s=2.0,
            max_attempts=8,
        )

    def drain(self, promises, step_s: float = 0.05,
              deadline_s: float = 30.0) -> float:
        """Advance virtual time until every promise settles; return span."""
        sim = self.fabric.sim
        start = sim.now()
        while any(p.pending for p in promises):
            sim.run_until(sim.now() + step_s)
            if sim.now() - start > deadline_s:
                raise AssertionError("promises did not settle in virtual time")
        return sim.now() - start

    def close(self) -> None:
        for replica in self.replicas.values():
            replica.close()
        self.client.close()


def run_read_scaling(backups=(0, 1, 2, 4), reads: int = 200):
    """Aggregate relaxed-read throughput vs number of backups."""
    rows = []
    for n_backups in backups:
        group = _Group(n_backups + 1)
        seed = group.client.command("write", "k", "v")
        group.drain([seed])
        promises = [
            group.client.read("read", "k", mode="any") for _ in range(reads)
        ]
        elapsed = group.drain(promises)
        assert all(p.fulfilled and p.result() == "v" for p in promises)
        served_by_backups = sum(
            replica.reads_backup for replica in group.replicas.values())
        group.close()
        rows.append({
            "backups": n_backups,
            "members": n_backups + 1,
            "reads": reads,
            "backup_served": served_by_backups,
            "virtual_s": round(elapsed, 4),
            "reads_per_vsec": round(reads / elapsed, 1),
        })
    return rows


def run_write_comparison(sizes=(1, 3, 5), writes: int = 100):
    """Quorum-write throughput vs group size (1 = unreplicated baseline)."""
    rows = []
    for n_members in sizes:
        group = _Group(n_members)
        promises = [
            group.client.command("write", f"k{i}", i) for i in range(writes)
        ]
        elapsed = group.drain(promises)
        assert all(p.fulfilled for p in promises)
        applied = sorted(
            r.applied_index for r in group.replicas.values()
        )
        group.close()
        rows.append({
            "members": n_members,
            "writes": writes,
            "applied_everywhere": applied[0] == applied[-1] == writes,
            "virtual_s": round(elapsed, 4),
            "writes_per_vsec": round(writes / elapsed, 1),
        })
    return rows


def _emit_calls_per_op(run, rows, field: str) -> None:
    """One more run, under the call counter (outside the timed rounds)."""
    calls = sum(count_repro_calls(run).values())
    ops = sum(row[field] for row in rows)
    emit(f"src/repro calls per {field[:-1]} (group set-up included): "
         f"{calls / ops:.1f}")


def _emit_bytes_per_write(rows) -> None:
    """One more group per row, its writes traced (outside the timed
    rounds): what the group holds once they commit, set-up excluded."""
    held = []
    for row in rows:
        group = _Group(row["members"])
        gc.collect()
        tracemalloc.start()
        promises = [group.client.command("write", f"k{i}", i)
                    for i in range(row["writes"])]
        group.drain(promises)
        del promises
        gc.collect()
        held.append(f"{row['members']} members "
                    f"{tracemalloc.get_traced_memory()[0] / row['writes']:.0f}")
        tracemalloc.stop()
        group.close()
    emit(f"tracemalloc bytes held per committed write: {', '.join(held)}")


def test_read_throughput_scales_with_backups(benchmark):
    rows = benchmark.pedantic(run_read_scaling, rounds=5, iterations=1)
    emit(format_table(rows, "Replication: relaxed-read scaling vs backups"))
    _emit_calls_per_op(run_read_scaling, rows, "reads")
    by_backups = {row["backups"]: row["reads_per_vsec"] for row in rows}
    # Two backups roughly double aggregate throughput; four roughly 4x it.
    assert by_backups[2] >= 1.8 * by_backups[0]
    assert by_backups[4] >= 3.0 * by_backups[0]
    # Relaxed reads actually land on backups once there are any.
    assert all(row["backup_served"] > 0 for row in rows if row["backups"])


def test_quorum_write_overhead_is_bounded(benchmark):
    rows = benchmark.pedantic(run_write_comparison, rounds=5, iterations=1)
    emit(format_table(rows, "Replication: write throughput vs group size"))
    _emit_calls_per_op(run_write_comparison, rows, "writes")
    _emit_bytes_per_write(rows)
    assert all(row["applied_everywhere"] for row in rows)
    baseline = rows[0]["writes_per_vsec"]
    replicated = {row["members"]: row["writes_per_vsec"] for row in rows}
    # Replication pipelines the append round trip behind the service
    # queue: a 3- or 5-way group costs well under 1.5x the single member.
    assert replicated[3] >= baseline / 1.5
    assert replicated[5] >= baseline / 1.5
