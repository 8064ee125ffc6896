#!/usr/bin/env python
"""Run the micro benchmarks and track the perf trajectory in BENCH_micro.json.

This is the repo's perf-regression harness. It runs the bench files in
:data:`BENCH_FILES` under pytest-benchmark, reduces each op to its median
(nanoseconds) and round count, stamps the git sha on the file and on every
row, and writes the result to ``BENCH_micro.json`` at the repo root. When a previous
BENCH_micro.json exists (or ``--baseline PATH`` names one), the new
medians are compared against it first: any op slower by more than
``--threshold`` (a ratio; default 1.5x to ride out scheduler noise) is
reported as a regression and the process exits non-zero — but the new
numbers are still written, so an intentional perf-profile change just
needs a second look plus a commit. A baseline op the run no longer
produces (renamed, deleted, failed to collect) is named too: against a
separate ``--baseline`` it fails the gate like a regression, because an op
nobody measures is an op nobody gates; refreshing the baseline in place it
is printed as dropped and the new file is written without it.

Medians are only comparable on the same machine, so CI uses a generous
threshold. ``--jobs N`` runs the bench files as concurrent pytest
subprocesses via :func:`repro.experiments.sweep.fan_out` — fine for
smoke/gate runs, but leave it off when refreshing the committed baseline
(co-scheduled benches contend for cores and inflate medians)::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # fast, noisier
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick --jobs 3

``--scale`` swaps the pytest micro benches for the swarm-scale curve
(``benchmarks/scale.py``): events/sec at 100/1k/10k nodes, each point's
delivery trace checked against its pinned digest (exit 3 on divergence),
then a single-process 100k-node point with its peak RSS (not under
``--quick``, where its row carries no median and is not compared). The same
record/compare/threshold machinery applies, against ``BENCH_scale.json``::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --scale            # baseline
    PYTHONPATH=src python benchmarks/run_benchmarks.py --scale --quick \
        --threshold 2.0 --normalize-skew --baseline BENCH_scale.json \
        --output /tmp/scale.json                                          # CI gate

Memory is gated beside time: an op whose ``peak_rss_mb`` (the 100k point,
so a full ``--scale`` run) exceeds the baseline's by more than
:data:`RSS_THRESHOLD` fails the comparison like a time regression.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = [
    Path(__file__).resolve().parent / "bench_micro.py",
    Path(__file__).resolve().parent / "bench_obs.py",
    Path(__file__).resolve().parent / "bench_overload.py",
    Path(__file__).resolve().parent / "bench_reconfigure_loop.py",
    Path(__file__).resolve().parent / "bench_replication.py",
    Path(__file__).resolve().parent / "bench_wire.py",
]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_micro.json"
SCALE_OUTPUT = REPO_ROOT / "BENCH_scale.json"
SCHEMA_VERSION = 1
#: A peak RSS may exceed the baseline's by this ratio before it fails.
RSS_THRESHOLD = 1.1


def git_sha() -> str:
    """HEAD's sha, with ``+dirty`` appended when tracked files differ from it.

    A ledger refreshed inside a change is produced by HEAD *plus that
    change*; the suffix keeps the stamp from naming a commit whose code
    would not reproduce the numbers.
    """
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + "+dirty" if dirty else sha


def _bench_env() -> dict:
    env = dict(os.environ)
    env_path = f"{REPO_ROOT / 'src'}"
    env["PYTHONPATH"] = (
        env_path + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else env_path
    )
    return env


def _run_bench_files(files: list, quick: bool) -> dict:
    """One pytest-benchmark subprocess over ``files``; return op -> stats."""
    with tempfile.TemporaryDirectory(prefix="bench-micro-") as tmp:
        raw_path = Path(tmp) / "raw.json"
        cmd = [
            sys.executable, "-m", "pytest", *(str(f) for f in files), "-q",
            "--benchmark-json", str(raw_path),
        ]
        if quick:
            cmd += [
                "--benchmark-max-time", "0.2",
                "--benchmark-min-rounds", "3",
                "--benchmark-warmup", "off",
            ]
        result = subprocess.run(cmd, cwd=REPO_ROOT, env=_bench_env())
        if result.returncode != 0:
            raise SystemExit(f"benchmark run failed (pytest exit {result.returncode})")
        raw = json.loads(raw_path.read_text())
    ops = {}
    for bench in raw["benchmarks"]:
        ops[bench["name"]] = {
            "median_ns": round(bench["stats"]["median"] * 1e9, 1),
            "rounds": bench["stats"]["rounds"],
        }
    return ops


def run_benches(quick: bool, jobs: int = 1) -> dict:
    """Run all bench files; return merged op -> stats.

    ``jobs > 1`` gives each bench file its own pytest subprocess, fanned
    out through the sweep runner's thread pool (threads, because the work
    happens in the subprocesses). Results merge in BENCH_FILES order, so
    the output is identical to a serial run modulo timing noise.
    """
    if jobs <= 1:
        return _run_bench_files(BENCH_FILES, quick)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments.sweep import fan_out

    per_file = fan_out(
        [[path] for path in BENCH_FILES],
        lambda files: _run_bench_files(files, quick),
        max_workers=jobs, use_processes=False,
    )
    ops: dict = {}
    for file_ops in per_file:
        ops.update(file_ops)
    return ops


def compare(previous: dict, current: dict, threshold: float,
            normalize_skew: bool = False) -> tuple:
    """Return ``(rows, dropped)``: [(op, old_ns, new_ns, ratio, regressed)]
    for shared ops, and the baseline ops ``current`` no longer has.

    With ``normalize_skew`` each ratio is divided by the median ratio
    across all ops before judging: a machine that is uniformly 2x slower
    than the baseline recorder then shows skew-adjusted ratios near 1.0,
    and only ops that regressed *relative to the rest of the suite* trip
    the threshold. This is what makes a committed baseline usable as a CI
    gate on foreign runners. The median is a machine's speed only if every
    baseline row was recorded in one run, so a baseline whose rows carry
    more than one ``git_sha`` is refused (``ValueError`` naming the shas).
    """
    if normalize_skew:
        shas = sorted({stats.get("git_sha", "?")
                       for stats in previous.get("ops", {}).values()})
        if len(shas) > 1:
            raise ValueError("--normalize-skew needs a baseline recorded in "
                             f"one run; its rows carry {len(shas)} shas: "
                             + ", ".join(sha[:12] for sha in shas))
    rows = []
    for op, stats in sorted(current.items()):
        old = previous.get("ops", {}).get(op)
        old_ns = None if old is None else old["median_ns"]
        new_ns = stats["median_ns"]
        if old_ns is None or new_ns is None:  # new, or skipped by --quick
            continue
        ratio = new_ns / old_ns if old_ns else float("inf")
        rows.append((op, old_ns, new_ns, ratio))
    skew = 1.0
    if normalize_skew and rows:
        ratios = sorted(row[3] for row in rows)
        skew = ratios[len(ratios) // 2] or 1.0
    dropped = sorted(set(previous.get("ops", {})) - set(current))
    return [
        (op, old_ns, new_ns, ratio, ratio / skew > threshold)
        for op, old_ns, new_ns, ratio in rows
    ], dropped


def compare_rss(previous: dict, current: dict,
                threshold: float = RSS_THRESHOLD) -> list:
    """Return [(op, old_mb, new_mb, ratio, over)] for every op with a
    ``peak_rss_mb`` in both, ``over`` when the ratio exceeds ``threshold``."""
    rows = []
    for op, stats in sorted(current.items()):
        old_mb = previous.get("ops", {}).get(op, {}).get("peak_rss_mb")
        new_mb = stats.get("peak_rss_mb")
        if old_mb is not None and new_mb is not None:
            ratio = new_mb / old_mb
            rows.append((op, old_mb, new_mb, ratio, ratio > threshold))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fast smoke run (fewer rounds, noisier medians)")
    parser.add_argument("--scale", action="store_true",
                        help="run the swarm-scale curve (events/sec at "
                             "100/1k/10k/100k nodes, traces checked against "
                             "pinned digests) instead of the micro benches; "
                             f"default output becomes {SCALE_OUTPUT.name}")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"JSON to write/compare (default "
                             f"{DEFAULT_OUTPUT.name}, or "
                             f"{SCALE_OUTPUT.name} with --scale)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="regression ratio: fail when new/old exceeds this "
                             "(default 1.5)")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the regression comparison (first baselines, CI "
                             "smoke runs on foreign machines)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="compare against this JSON instead of --output "
                             "(CI gate: --baseline BENCH_micro.json --output tmp)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run bench files as N concurrent pytest "
                             "subprocesses (default 1; keep serial for "
                             "baseline refreshes)")
    parser.add_argument("--normalize-skew", action="store_true",
                        help="divide ratios by the suite-wide median ratio "
                             "before judging, so a uniformly slower machine "
                             "does not trip the threshold (CI gates)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = SCALE_OUTPUT if args.scale else DEFAULT_OUTPUT

    previous = None
    baseline_path = args.baseline if args.baseline is not None else args.output
    if baseline_path.exists():
        try:
            previous = json.loads(baseline_path.read_text())
        except (OSError, json.JSONDecodeError):
            print(f"warning: could not parse baseline {baseline_path}; "
                  "treating as no baseline", file=sys.stderr)
    elif args.baseline is not None:
        print(f"warning: baseline {baseline_path} not found; skipping "
              "comparison", file=sys.stderr)

    traces_ok = True
    if args.scale:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from scale import run_curve

        ops, traces_ok = run_curve(args.quick)
    else:
        ops = run_benches(args.quick, jobs=args.jobs)
    sha = git_sha()
    for stats in ops.values():
        # Each row names the code it measured, so a row carried into a
        # file recorded at another commit still says where it came from.
        stats["git_sha"] = sha
    record = {
        "schema": SCHEMA_VERSION,
        "git_sha": sha,
        "python": sys.version.split()[0],
        "quick": args.quick,
        "ops": ops,
    }

    regressed = []
    dropped = []
    if previous is not None and not args.no_compare:
        try:
            rows, dropped = compare(previous, ops, args.threshold,
                                    normalize_skew=args.normalize_skew)
        except ValueError as refused:
            print(f"REFUSED: {refused}", file=sys.stderr)
            return 2
        print(f"\n{'op':<36} {'old (us)':>12} {'new (us)':>12} {'ratio':>7}")
        for op, old_ns, new_ns, ratio, bad in rows:
            flag = "  REGRESSION" if bad else ""
            print(f"{op:<36} {old_ns / 1e3:>12.1f} {new_ns / 1e3:>12.1f} "
                  f"{ratio:>6.2f}x{flag}")
        rss_rows = compare_rss(previous, ops)
        for op, old_mb, new_mb, ratio, over in rss_rows:
            flag = "  REGRESSION" if over else ""
            print(f"{op + ' peak RSS':<36} {old_mb:>9.1f} MB {new_mb:>9.1f} MB "
                  f"{ratio:>6.2f}x{flag}")
        regressed = [row for row in rows + rss_rows if row[4]]
        baseline_sha = previous.get("git_sha", "?")[:12]
        print(f"(baseline {baseline_sha}, threshold {args.threshold}x, "
              f"peak RSS {RSS_THRESHOLD}x)")
        for op in dropped:
            print(f"dropped: {op} is in the baseline and was not measured")

    args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if not traces_ok:
        print("TRACE MISMATCH: a scale point's delivery trace is not its "
              "pinned digest", file=sys.stderr)
        return 3
    if regressed:
        names = ", ".join(row[0] for row in regressed)
        print(f"PERF REGRESSION in: {names}", file=sys.stderr)
        return 2
    if dropped and args.baseline is not None:
        print(f"UNGATED: the baseline's {', '.join(dropped)} did not run",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
