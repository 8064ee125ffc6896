"""E13 — chaos campaigns: the failure story under deterministic fault storms.

Claim under test: the middleware's failure handling (Sections 3.4 and 3.8)
is not just a happy-path feature — reliable transport, discovery, routing,
heartbeat failover, transactions, and MiLAN reconfiguration all recover
from composed faults (crash churn, partitions with live mobility, loss
bursts, frame corruption, clock skew) and their recovery invariants hold.

Each (mix, seed) campaign is a pure function of its inputs: the scorecard
is byte-identical across runs and processes, so campaigns fan naturally
over the PR-3 sweep runner::

    python -m repro.experiments chaos                 # the summary table
    python -m repro.experiments sweep chaos --seeds 0-7 --workers 4
    python -m repro.experiments.exp_chaos --seeds 0-7 --json scorecards.json

The module CLI exits nonzero if any campaign violates an invariant — the
CI chaos-smoke step runs it with a short fixed-seed grid and uploads the
scorecard JSON as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.common import Rows, check
from repro.util.rng import parse_seeds
from repro.workloads.campaign import FAULT_MIXES, run_campaign


def run_one(mix: str, seed: int, **overrides: Any) -> Dict[str, Any]:
    """One campaign, flattened to a result-table row."""
    scorecard = run_campaign(mix, seed, **overrides)
    delivery = scorecard["delivery"]
    heartbeat = scorecard["heartbeat"]
    reconvergence = scorecard["reconvergence"]
    return {
        "mix": mix,
        "delivery_ratio": delivery["ratio"],
        "give_ups": delivery["give_ups"],
        "retransmits": delivery["retransmissions"],
        "malformed": scorecard["malformed_frames"],
        "crashes": scorecard["faults"]["crashes"],
        "hb_detected": f"{heartbeat['detected']}/{heartbeat['episodes']}",
        "reconv_s": reconvergence["discovery_s"],
        "ledger_ok": scorecard["ledger"]["conserved"],
        "violations": len(scorecard["violations"]),
        "ok": scorecard["ok"],
    }


def run(seed: int = 0) -> List[Dict[str, Any]]:
    """The E13 table: one row per fault mix at the given seed."""
    return [run_one(mix, seed) for mix in FAULT_MIXES]


def verdict(rows: Rows) -> str:
    for row in rows:
        check(row["ok"] is True and row["violations"] == 0,
              f"mix {row['mix']} broke {row['violations']} recovery invariant(s)")
        check(row["ledger_ok"] is True, f"mix {row['mix']} lost money")
    worst = min(rows, key=lambda row: row["delivery_ratio"])
    return (f"holds ({len(rows)}/{len(rows)} mixes keep every recovery invariant; "
            f"lowest delivery {worst['delivery_ratio']:.3f} under {worst['mix']})")


def run_grid(
    seeds: Sequence[int],
    mixes: Sequence[str] = FAULT_MIXES,
    **overrides: Any,
) -> List[Dict[str, Any]]:
    """Full scorecards for every (mix, seed) pair, grid order."""
    return [
        run_campaign(mix, seed, **overrides) for mix in mixes for seed in seeds
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.exp_chaos",
        description="Run chaos campaigns; exit nonzero on invariant violations.",
    )
    parser.add_argument("--seeds", default="0",
                        help='seed spec: "0-7", "1,5,9", or one value')
    parser.add_argument("--mixes", default=",".join(FAULT_MIXES),
                        help=f"comma-separated fault mixes (default: all of "
                             f"{','.join(FAULT_MIXES)})")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full scorecards as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="short campaigns (CI): ~40s virtual time each")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    mixes = [m.strip() for m in args.mixes.split(",") if m.strip()]
    unknown = sorted(set(mixes) - set(FAULT_MIXES))
    if unknown:
        print(f"unknown mix(es) {unknown}; available: {list(FAULT_MIXES)}",
              file=sys.stderr)
        return 2
    overrides: Dict[str, Any] = {}
    if args.smoke:
        # duration leaves room for the slowest possible retransmission
        # chain (~13.6s under max clock skew) after the last send, so the
        # timer-leak invariant stays meaningful in the short grid too.
        overrides = {
            "duration_s": 40.0,
            "heal_deadline_s": 24.0,
            "fault_start_s": 5.0,
            "bulk_messages": 60,
            "transfer_stop_s": 22.0,
        }

    scorecards = run_grid(seeds, mixes, **overrides)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(scorecards, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)

    failures = 0
    for scorecard in scorecards:
        status = "ok" if scorecard["ok"] else "FAIL"
        print(f"{scorecard['mix']:<10} seed={scorecard['seed']:<3} {status}  "
              f"delivery={scorecard['delivery']['ratio']:.3f}  "
              f"violations={len(scorecard['violations'])}")
        for violation in scorecard["violations"]:
            failures += 1
            print(f"  VIOLATION: {violation}", file=sys.stderr)
    print(f"{len(scorecards)} campaigns, {failures} invariant violations")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
