"""Run experiment harnesses from the command line.

Usage::

    python -m repro.experiments              # list experiments
    python -m repro.experiments milan        # run one, print its table(s)
    python -m repro.experiments figure1 discovery
    python -m repro.experiments all          # everything (several minutes)
    python -m repro.experiments sweep milan --seeds 0-3 --workers 4
                                             # seed sweep across processes
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

from repro.experiments import format_table
from repro.experiments.common import parse_seeds
from repro.experiments import (
    exp_adaptation,
    exp_chaos,
    exp_degradation,
    exp_discovery,
    exp_figure1,
    exp_handoff,
    exp_interop,
    exp_milan,
    exp_netindep,
    exp_recovery,
    exp_routing,
    exp_scheduling,
    exp_simtest,
    exp_spatial,
    exp_transactions,
)

#: name -> [(title, thunk returning rows)]
EXPERIMENTS: Dict[str, List[Tuple[str, Callable[[], list]]]] = {
    "figure1": [
        ("F1: middleware references per year", exp_figure1.run),
        ("F1: textual claims", exp_figure1.run_claims),
    ],
    "discovery": [
        ("E2: discovery mode x size x churn", exp_discovery.run),
        ("E2b: registry mirroring", exp_discovery.run_mirrored),
    ],
    "spatial": [("E3: spatial vs logical matching", exp_spatial.run)],
    "degradation": [("E4: graceful degradation", exp_degradation.run)],
    "routing": [
        ("E5: routing and lifetime", exp_routing.run),
        ("E5b: routing without tables", exp_routing.run_tablefree),
    ],
    "transactions": [("E6: interaction paradigms", exp_transactions.run)],
    "scheduling": [("E7: policies under load", exp_scheduling.run)],
    "handoff": [("E7b: departing-supplier handoff", exp_handoff.run)],
    "recovery": [("E8: recovery vs checkpoint interval", exp_recovery.run)],
    "interop": [
        ("E9: wire-format cost", exp_interop.run),
        ("E9: paradigm bridge", lambda: [exp_interop.run_bridge()]),
    ],
    "milan": [
        ("E10: MiLAN lifetime vs baselines", exp_milan.run),
        ("E10 ablation: feasible-set cap", exp_milan.run_ablation),
    ],
    "adaptation": [("E11: plug-and-play adaptation", exp_adaptation.run)],
    "chaos": [("E13: chaos campaign resilience scorecards", exp_chaos.run)],
    "simtest": [("E14: planted-defect detection via simulation testing",
                 exp_simtest.run)],
    "netindep": [
        ("E12: network independence", exp_netindep.run),
        ("E12 ablation: retransmission policy",
         exp_netindep.run_retransmit_ablation),
    ],
}


def sweep_main(argv: List[str]) -> int:
    """``sweep`` subcommand: experiments x seeds over a process pool."""
    import argparse
    import json

    from repro.experiments import sweep

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Fan (experiment, seed) jobs across worker processes; "
                    "results merge in deterministic grid order.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="sweepable experiment names (empty: list them)")
    parser.add_argument("--seeds", default="0",
                        help='seed spec: "0-3", "1,5,9", or a single value')
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (default: cpu count)")
    parser.add_argument("--serial", action="store_true",
                        help="run in-process, no pool (debugging)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write raw outcomes as JSON")
    args = parser.parse_args(argv)
    if not args.experiments:
        parser.print_usage()
        print("available sweepables:")
        for name in sorted(sweep.SWEEPABLE):
            print(f"  {name}")
        return 0
    try:
        seeds = parse_seeds(args.seeds)
        outcomes = sweep.run_sweep(
            args.experiments, seeds,
            max_workers=1 if args.serial else args.workers,
            on_result=lambda job, outcome: print(
                f"done {job[0]} seed={job[1]} "
                f"({outcome['wall_s']:.2f}s, pid {outcome['pid']})",
                file=sys.stderr),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(outcomes, handle, indent=2, default=str)
        print(f"wrote {args.json}", file=sys.stderr)
    title = (f"sweep: {' '.join(args.experiments)} x seeds {args.seeds} "
             f"({len(outcomes)} jobs)")
    print(format_table(sweep.merged_rows(outcomes), title))
    failures = [o for o in outcomes if o["error"] is not None]
    for outcome in failures:
        print(f"FAILED {outcome['experiment']} seed={outcome['seed']}: "
              f"{outcome['error']}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    names = argv[1:]
    if names and names[0] == "sweep":
        return sweep_main(names[1:])
    if not names:
        print(__doc__)
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        return 0
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    # Accept module-style names too: "exp_chaos" -> "chaos".
    names = [
        n[4:] if n.startswith("exp_") and n[4:] in EXPERIMENTS else n
        for n in names
    ]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        for title, thunk in EXPERIMENTS[name]:
            print(format_table(thunk(), title))
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
