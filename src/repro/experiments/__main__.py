"""Run experiment harnesses from the command line.

Usage::

    python -m repro.experiments              # list experiments
    python -m repro.experiments milan        # run one word's tables, judge each
    python -m repro.experiments E10b figure1 # ... or one table by its id
    python -m repro.experiments all          # everything (under half a minute)
    python -m repro.experiments report       # rewrite EXPERIMENTS.md's tables
    python -m repro.experiments sweep milan --seeds 0-3 --workers 4
                                             # seed sweep across processes

Every table is followed by its computed verdict; the exit status is
non-zero when a verdict finds its table out of shape.
"""

from __future__ import annotations

import sys
from typing import List

from repro.experiments import sweep, table
from repro.experiments.common import ShapeError, format_table
from repro.util.rng import parse_seeds


def sweep_main(argv: List[str]) -> int:
    """``sweep`` subcommand: experiments x seeds over a process pool."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Fan (experiment, seed) jobs across worker processes; "
                    "results merge in deterministic grid order.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="seeded experiment words or ids (empty: list them)")
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
        for name in sweep.sweepable_names():
            print(f"  {name}")
        return 0
    try:
        seeds = parse_seeds(args.seeds)
        outcomes = sweep.run_sweep(
            args.experiments, seeds,
            max_workers=1 if args.serial else args.workers,
            on_result=lambda job, outcome: print(
                f"done {job[0]} seed={job[1]} "
                f"({outcome['wall_s']:.2f}s, pid {outcome['pid']}) "
                f"{outcome['verdict'] or ''}",
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
    words = argv[1:]
    if words and words[0] == "sweep":
        return sweep_main(words[1:])
    if words == ["report"]:
        try:
            changed = table.report()
        except ShapeError as exc:
            print(f"report: FAILED {exc}", file=sys.stderr)
            return 1
        print(f"{table.REPORT_PATH}: {'rewritten' if changed else 'up to date'}")
        return 0
    if not words:
        print(__doc__)
        print("available experiments:")
        for name in dict.fromkeys(row.name for row in table.EXPERIMENTS):
            ids = ", ".join(row.id for row in table.find(name))
            print(f"  {name:<13} {ids}")
        return 0
    if words == ["all"]:
        chosen = list(table.EXPERIMENTS)
    else:
        # Accept module-style names too: "exp_chaos" -> "chaos".
        found = {word: table.find(word) or table.find(word.removeprefix("exp_"))
                 for word in words}
        unknown = [word for word, rows in found.items() if not rows]
        if unknown:
            print(f"unknown experiment(s): {unknown}; available: "
                  f"{sorted({row.name for row in table.EXPERIMENTS})}",
                  file=sys.stderr)
            return 2
        chosen = [row for rows in found.values() for row in rows]
    failed = 0
    for row in chosen:
        rows = row.run()
        print(format_table(rows, row.title))
        try:
            print(f"verdict: {row.judge(rows)}")
        except ShapeError as exc:
            failed += 1
            print(f"verdict: FAILED {exc}", file=sys.stderr)
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
