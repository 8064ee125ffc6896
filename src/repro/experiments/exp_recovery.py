"""E8 — log-based recovery for critical transactions (Section 3.8).

Claim under test: "If middleware works with critical transactions, it must
include a recovery system to deal with failures. Sometimes a simple
log-based scheme can be used..."

A transactional store executes a committed-write workload, crashes at a
random point, and recovers. Sweeping the checkpoint interval exposes the
classic tradeoff: frequent checkpoints cost log volume at runtime but bound
the records recovery must scan. Durability must be 100% at every setting —
that column is the invariant, not a variable.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.experiments.common import Rows, check
from repro.recovery.store import TransactionalStore
from repro.recovery.wal import StableStorage
from repro.util.rng import split_rng

N_TRANSACTIONS = 400
WRITES_PER_TRANSACTION = 3


def run_one(checkpoint_interval: int, seed: int = 0) -> Dict[str, Any]:
    rng = split_rng(seed, f"recovery:{checkpoint_interval}")
    storage = StableStorage()
    store = TransactionalStore(storage, checkpoint_interval_ops=checkpoint_interval)
    expected: Dict[str, int] = {}
    crash_after = rng.randint(N_TRANSACTIONS // 2, N_TRANSACTIONS - 1)
    for i in range(N_TRANSACTIONS):
        txid = store.begin()
        writes = {}
        for j in range(WRITES_PER_TRANSACTION):
            key = f"k{rng.randint(0, 99)}"
            value = rng.randint(0, 10**6)
            store.put(txid, key, value)
            writes[key] = value
        if rng.random() < 0.1:
            store.abort(txid)
        else:
            store.commit(txid)
            expected.update(writes)
        if i == crash_after:
            break
    log_size = len(storage)
    store.crash()
    started = time.perf_counter()
    recovered = TransactionalStore(storage,
                                   checkpoint_interval_ops=checkpoint_interval)
    recovery_wall_s = time.perf_counter() - started
    durable = recovered.snapshot() == expected
    return {
        "checkpoint_every_ops": checkpoint_interval,
        "log_records": log_size,
        "records_scanned": recovered.last_recovery_records_scanned,
        "recovery_wall_ms": round(recovery_wall_s * 1000, 3),
        "durability": "100%" if durable else "VIOLATED",
    }


def run(intervals=(25, 100, 400, 10**9), seed: int = 0) -> List[Dict[str, Any]]:
    """The E8 table: recovery cost vs checkpoint interval (inf = never)."""
    return [run_one(interval, seed) for interval in intervals]


def verdict(rows: Rows) -> str:
    for row in rows:
        check(row["durability"] == "100%",
              f"checkpoint every {row['checkpoint_every_ops']}: {row['durability']}")
    # Replay is bounded by the checkpoint interval, not by the log: an
    # operation (put, commit) logs at most two records (its own, plus a
    # BEGIN or ABORT), and one open transaction reaches back past the
    # checkpoint. Seeds 4 and 5 show why the bound and not "scanned rises
    # with the interval" is the claim: each row crashes at its own point,
    # so a rare checkpoint can happen to land just before the crash.
    for row in rows:
        bound = min(2 * row["checkpoint_every_ops"] + 5, row["log_records"])
        check(row["records_scanned"] <= bound,
              f"checkpoint every {row['checkpoint_every_ops']} replayed "
              f"{row['records_scanned']} records, bound {bound}")
    often, never = rows[0], rows[-1]
    check(never["records_scanned"] == never["log_records"],
          "never checkpointing did not replay the whole log")
    check(often["records_scanned"] < 0.1 * often["log_records"],
          f"checkpoint every {often['checkpoint_every_ops']} still replays "
          f"{often['records_scanned']} of {often['log_records']} records")
    return (f"holds (100% durable; replay {often['records_scanned']} -> "
            f"{never['records_scanned']} records from checkpoint-every-"
            f"{often['checkpoint_every_ops']} to never)")
