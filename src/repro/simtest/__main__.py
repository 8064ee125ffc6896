"""CLI for the simulation-testing framework.

::

    python -m repro.simtest run --budget 500 --seed 0
    python -m repro.simtest run --budget 60 --seed 1 --plant broken-watermark \
        --expect-divergence --repro-out simtest-repro.json
    python -m repro.simtest repro simtest-repro.json
    python -m repro.simtest plants
    python -m repro.simtest failover --runs 10 --seed 0 --json failover.json
    python -m repro.simtest scenario telemetry_ledger:heavy_tail --seeds 0-9

``run`` explores; on divergence it shrinks the trace, writes a repro file,
and exits 1 (or 0 with ``--expect-divergence``, the planted-bug smoke
mode, which also requires the plant's judge to report the first
divergence and verifies the written repro replays). ``repro`` replays a
repro file and exits 0 iff the recorded divergence reproduces.
``failover`` runs the replicated primary-kill world
(:mod:`repro.simtest.replicated`) over a seed range and exits nonzero on
any divergence. ``scenario`` runs a workload scenario with its history
recorded and judges it (:func:`repro.simtest.workloads.check_scenario`);
it exits 1 on any violation and 2 on a scenario that records no history.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.simtest.explorer import explore
from repro.simtest.defects import DEFECTS, PLANTS
from repro.simtest.shrinker import replay_repro, shrink, write_repro


def _cmd_run(args: argparse.Namespace) -> int:
    def progress(iteration: int, totals: dict) -> None:
        if args.progress_every and (iteration + 1) % args.progress_every == 0:
            print(f"  ... {iteration + 1}/{args.budget} runs clean "
                  f"({totals.get('events', 0)} events)")

    report = explore(args.budget, args.seed, steps=args.steps,
                     plant=args.plant, on_progress=progress)
    summary = {
        "seed": args.seed,
        "budget": args.budget,
        "runs": report.runs,
        "plant": args.plant,
        "ok": report.ok,
        "totals": dict(sorted(report.totals.items())),
        "divergences": [d.to_dict() for d in report.divergences],
    }
    if report.ok:
        print(f"simtest: {report.runs} runs, zero divergences "
              f"({report.totals.get('events', 0)} events, "
              f"{report.totals.get('lin_objects', 0)} histories checked)")
        if args.json:
            _write_json(args.json, summary)
        return 0

    first = report.divergences[0]
    scenario = report.divergent_scenario
    assert scenario is not None
    print(f"simtest: divergence after {report.runs} runs: "
          f"[{first.oracle}/{first.kind}] {first.detail}")
    print(f"  scenario: seed={scenario.seed} tie_seed={scenario.tie_seed} "
          f"steps={len(scenario.steps)}")
    if (args.expect_divergence and args.plant
            and first.oracle != DEFECTS[args.plant].judge):
        print(f"  ERROR: caught by {first.oracle}, not by the plant's judge "
              f"{DEFECTS[args.plant].judge}", file=sys.stderr)
        return 1
    result = shrink(scenario, first.signature, plant=args.plant,
                    max_replays=args.shrink_budget)
    print(f"  shrunk: {result.initial_steps} -> {result.steps} steps "
          f"in {result.replays} replays")
    write_repro(args.repro_out, result.scenario, result.signature,
                plant=args.plant, detail=first.detail)
    print(f"  repro written to {args.repro_out}")
    summary["shrunk_steps"] = result.steps
    summary["repro"] = args.repro_out
    if args.json:
        _write_json(args.json, summary)
    if args.expect_divergence:
        reproduced, _observed = replay_repro(args.repro_out)
        if not reproduced:
            print("  ERROR: written repro does not replay", file=sys.stderr)
            return 1
        print("  repro verified: replays deterministically")
        return 0
    return 1


def _cmd_repro(args: argparse.Namespace) -> int:
    reproduced, observed = replay_repro(args.file)
    if reproduced:
        print(f"repro: divergence reproduced ({observed[0][0]}/"
              f"{observed[0][1]})")
        return 0
    print(f"repro: expected divergence did NOT reproduce "
          f"(observed: {observed})", file=sys.stderr)
    return 1


def _cmd_failover(args: argparse.Namespace) -> int:
    from repro.simtest.replicated import run_failover

    scorecards = []
    failed = 0
    for seed in range(args.seed, args.seed + args.runs):
        scorecard = run_failover(seed, tie_seed=args.tie_seed)
        scorecards.append(scorecard)
        failover = scorecard["failover"]
        if scorecard["ok"]:
            print(f"failover: seed={seed} ok "
                  f"(new primary {failover['new_primary']} after "
                  f"{failover['latency_s']}s, "
                  f"{scorecard['stats']['lin_objects']} histories checked)")
        else:
            failed += 1
            first = scorecard["divergences"][0]
            print(f"failover: seed={seed} DIVERGED "
                  f"[{first['oracle']}/{first['kind']}] {first['detail']}")
    if args.json:
        _write_json(args.json, {"runs": scorecards, "failed": failed})
    if failed:
        print(f"failover: {failed}/{args.runs} runs diverged",
              file=sys.stderr)
        return 1
    print(f"failover: {args.runs} runs, zero divergences")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.util.rng import parse_seeds
    from repro.simtest.workloads import check_scenario

    seeds = [args.seed] if args.seeds is None else parse_seeds(args.seeds)
    failed = 0
    for seed in seeds:
        try:
            result = check_scenario(args.scenario, seed)
        except ConfigurationError as error:
            print(f"scenario: {error}", file=sys.stderr)
            return 2
        violations = result["violations"]
        print(f"scenario: {args.scenario} seed={seed} "
              f"{'VIOLATED' if violations else 'ok'} ({result['objects']} "
              f"objects, {result['operations']} operations)")
        for violation in violations:
            print(f"  {violation}")
        failed += bool(violations)
    if failed:
        print(f"scenario: {failed}/{len(seeds)} runs violated",
              file=sys.stderr)
        return 1
    return 0


def _cmd_plants(_args: argparse.Namespace) -> int:
    for name in PLANTS:
        print(f"{name}: {DEFECTS[name].description}")
    return 0


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simtest",
        description="Deterministic simulation testing.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="explore schedules and faults")
    run.add_argument("--budget", type=int, default=200,
                     help="number of randomized executions (default 200)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--steps", type=int, default=None,
                     help="pin the per-scenario step count")
    run.add_argument("--plant", choices=PLANTS, default=None,
                     help="apply a plant row of the defect table")
    run.add_argument("--shrink-budget", type=int, default=400,
                     help="max replays during shrinking (default 400)")
    run.add_argument("--repro-out", default="simtest-repro.json")
    run.add_argument("--json", default=None,
                     help="write a machine-readable summary here")
    run.add_argument("--progress-every", type=int, default=100)
    run.add_argument("--expect-divergence", action="store_true",
                     help="exit 0 iff a divergence was found, shrunk, and "
                          "its repro replays (planted-bug smoke mode)")
    run.set_defaults(func=_cmd_run)

    repro = commands.add_parser("repro", help="replay a minimized repro file")
    repro.add_argument("file")
    repro.set_defaults(func=_cmd_repro)

    failover = commands.add_parser(
        "failover", help="run the replicated primary-kill scenario"
    )
    failover.add_argument("--seed", type=int, default=0,
                          help="first seed of the range")
    failover.add_argument("--runs", type=int, default=5,
                          help="number of seeds to run (default 5)")
    failover.add_argument("--tie-seed", type=int, default=0)
    failover.add_argument("--json", default=None,
                          help="write all scorecards here")
    failover.set_defaults(func=_cmd_failover)

    scenario = commands.add_parser(
        "scenario", help="judge a workload scenario's recorded history"
    )
    scenario.add_argument("scenario", help="archetype:traffic")
    seeds = scenario.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=0)
    seeds.add_argument("--seeds", default=None, help="a range, e.g. 0-9")
    scenario.set_defaults(func=_cmd_scenario)

    plants = commands.add_parser("plants", help="list available plants")
    plants.set_defaults(func=_cmd_plants)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
