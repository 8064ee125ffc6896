"""The repo's benchmark of record. See README.md beside this file.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--out results.json]   # all six

One process, one thread, no sockets. Every measurement is a fresh
sequential child process (``--child``), so set-up time and peak memory
are per measurement. ``--trace 0`` repeats the workload ``seconds / 2``
times (at least 3; a full-size repeat is ~2 s of timed work) and prints
the end-to-end metrics as medians; ``--trace 1`` makes one untraced and
one cProfile-traced run and prints the per-layer metrics. The last line
of standard output is the result as one JSON object. Any failed check
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Timed host seconds one full-size repeat is sized to (workloads.SIZES).
REPEAT_S = 2.0
#: Real time between two timings of the calibration kernel.
TICK_S = 0.1
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


# ------------------------------------------------------------------- child


def child_main(request: Dict[str, Any]) -> Dict[str, Any]:
    """One measurement in this (fresh) process."""
    import calib
    setup_kernels = [calib.kernel_s()]  # one timing before the imports ...
    import workloads

    if request.get("preflight"):
        workloads.preflight(ROOT / "tests" / "golden")
        return {}
    workload = workloads.build(request["workload"], request["seed"],
                               request["smoke"])
    setup_s = time.time() - request["spawned_at"] - setup_kernels[0]
    setup_kernels += [calib.kernel_s() for _ in range(3)]  # ... three after

    # The timed region. Every TICK_S of real time a timer interrupts it to
    # time the calibration kernel, so each stretch between two ticks is
    # scaled by the machine's speed then, whatever the workload is inside
    # (calib.py). The traced run has only the opening and closing tick:
    # its call counts must not depend on how long it took.
    clock = time.perf_counter
    ticks = []  # (entered, kernel seconds, left)

    def tick(*_signal_args: Any) -> None:
        entered = clock()
        ticks.append((entered, calib.kernel_s(), clock()))

    tracer = None
    if request["traced"]:
        from trace import Trace
        tracer = Trace()
    tick()
    if tracer:
        tracer.start()
    else:
        signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    workload.run()
    if tracer:
        tracer.stop()
    else:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
    tick()
    stretches = [
        (entered - left, (kernel_before + kernel_after) / 2)
        for (_e, kernel_before, left), (entered, kernel_after, _l)
        in zip(ticks, ticks[1:])
    ]

    outcome = workload.outcome()
    ref = calib.CALIB_REF_S
    outcome.update(
        wall_s=sum(raw for raw, _kernel in stretches),
        wall_norm_s=sum(raw * ref / kernel for raw, kernel in stretches),
        setup_s=setup_s,
        setup_norm_s=setup_s * ref / statistics.median(setup_kernels),
        calib_s=statistics.median(kernel for _e, kernel, _l in ticks),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        trace=tracer.fold(SRC / "repro") if tracer else None,
    )
    return outcome


# ------------------------------------------------------------------ parent


def spawn(**request: Any) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if request.get("traced"):
        # Iteration order of sets of str is per process; it never changes a
        # result (the untraced repeats keep it random and must agree on the
        # digest) but it changes how many comparisons a sort makes, and the
        # traced run's call counts have to repeat exactly.
        env["PYTHONHASHSEED"] = "0"
    request["spawned_at"] = time.time()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(request)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise ChildFailed(f"child exited {done.returncode} for {request}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(name: str, seed: int, smoke: bool, traced: bool) -> Dict[str, Any]:
    return spawn(workload=name, seed=seed, smoke=smoke, traced=traced)


def same_behaviour(name: str, runs: List[Dict[str, Any]]) -> None:
    """Simulated results are in virtual time: every run of one (workload,
    seed) must produce the same digest, ops and simulated metrics."""
    first = runs[0]
    for other in runs[1:]:
        for key in ("digest", "ops", "ok", "sim"):
            if other[key] != first[key]:
                raise ChildFailed(
                    f"{name}: {key} differs between runs of one seed: "
                    f"{first[key]!r} != {other[key]!r}"
                )


def end_to_end(name: str, seed: int, seconds: float, smoke: bool
               ) -> Dict[str, Any]:
    repeats = max(1 if smoke else MIN_REPEATS, round(seconds / REPEAT_S))
    runs = [measure(name, seed, smoke, traced=False) for _ in range(repeats)]
    same_behaviour(name, runs)
    samples = {
        "setup_s": [r["setup_norm_s"] for r in runs],
        "ops_per_s": [r["ops"] / r["wall_norm_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "ok_share": [r["ok"] / r["ops"] for r in runs],
    }
    return {
        "runs": runs,
        "samples": samples,
        "metrics": {k: statistics.median(v) for k, v in samples.items()},
    }


def growth_ratio(slices: List[List[float]]) -> float:
    """Host time per op in the last fifth of a run's virtual-time slices
    over the first fifth; 0 for a workload that is not driven in slices."""
    fifth = len(slices) // 5
    if not fifth:
        return 0.0

    def per_op(part: List[List[float]]) -> float:
        return sum(took for _n, took in part) / sum(n for n, _took in part)

    return per_op(slices[-fifth:]) / per_op(slices[:fifth])


def ratio(numerator: float, denominator: float) -> float:
    """Counters that do not apply to a workload read 0, and so do ratios
    over them."""
    return numerator / denominator if denominator else 0.0


def per_layer(name: str, seed: int, smoke: bool,
              plain: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """``plain`` is an untraced run of the same inputs, if one was just
    made for the end-to-end metrics."""
    plain = plain or measure(name, seed, smoke, traced=False)
    traced = measure(name, seed, smoke, traced=True)
    same_behaviour(name, [plain, traced])
    fold = traced.pop("trace")
    counters, sim, ops = plain["counters"], plain["sim"], plain["ops"]
    by_name = fold["calls_by_name"]
    transmit_calls = by_name.get("netsim.medium:transmit", 0)
    tx = counters.get("transmissions", 0)
    if tx and transmit_calls != tx:
        raise ChildFailed(
            f"{name}: profiler saw {transmit_calls} transmit calls, the "
            f"medium counted {tx}"
        )
    wall_norm = plain["wall_norm_s"]
    metrics: Dict[str, float] = {}
    for layer, self_s in fold["self_s"].items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / fold["total_s"]
        metrics[f"{layer}.calls"] = fold["calls"][layer]
    events = counters.get("events", 0)
    commits = counters.get("commits", 0)
    metrics.update({
        "netsim.simulator.events": events,
        "netsim.simulator.ns_per_event": ratio(wall_norm * 1e9, events),
        "netsim.medium.transmissions": tx,
        "netsim.medium.deliveries": counters.get("deliveries", 0),
        "netsim.medium.deliveries_per_tx":
            ratio(counters.get("deliveries", 0), tx),
        "netsim.energy.min_battery_frac":
            counters.get("min_battery_frac", 1.0),
        "transport.retransmissions": counters.get("retransmissions", 0),
        "transport.give_ups": counters.get("give_ups", 0),
        "interop.codec.calls_per_tx":
            ratio(fold["calls"]["interop.codec"], transmit_calls),
        "transactions.matches_per_read":
            ratio(by_name.get("transactions:template_matches", 0),
                  counters.get("reads", 0)),
        "transactions.tuples_stored": counters.get("tuples_stored", 0),
        "replication.commits": commits,
        "replication.tx_per_commit": ratio(tx, commits),
        "replication.election_rounds": counters.get("election_rounds", 0),
        "recovery.hb_detected": counters.get("hb_detected", 0),
        "qos.admitted": counters.get("admitted", 0),
        "qos.rejected": counters.get("rejected", 0),
        "core.reconfigurations": counters.get("reconfigurations", 0),
        "core.cache_hit_rate": counters.get("cache_hit_rate", 0.0),
        "workloads.arrivals": counters.get("arrivals", 0),
        "workloads.offered_bytes": counters.get("offered_bytes", 0),
        "workloads.growth_ratio": growth_ratio(plain["slices"]),
        "host.calls_per_op": fold["total_calls"] / ops,
        "host.wall_s_raw": plain["wall_s"],
        "host.calib_s": plain["calib_s"],
        "host.trace_overhead_x": traced["wall_norm_s"] / wall_norm,
        "sim.p50_ms": sim.get("p50_ms", 0.0),
        "sim.p99_ms": sim.get("p99_ms", 0.0),
        "sim.energy_mj_per_op": sim.get("energy_mj_per_op", 0.0),
        "sim.recover_s": sim.get("recover_s", 0.0),
        "sim.lifetime_x": sim.get("lifetime_x", 0.0),
    })
    return {"runs": [plain, traced], "metrics": metrics,
            "crossings": fold["crossings"]}


def run_one(spec: Dict[str, Any], name: str, seed: int, seconds: float,
            traced: bool, smoke: bool, plain: Optional[Dict[str, Any]] = None
            ) -> Dict[str, Any]:
    """Measure, then shape the result exactly as BENCHMARK.json declares."""
    if traced:
        result = per_layer(name, seed, smoke, plain)
        declared = spec["per_layer"]
    else:
        result = end_to_end(name, seed, seconds, smoke)
        declared = spec["end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise ChildFailed(
            "metrics computed and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(names) ^ set(metrics))}"
        )
    first = result["runs"][0]
    result.update(
        workload=name, seed=seed, traced=traced, digest=first["digest"],
        line={
            "correct": True,
            "attempted": first["ops"],
            # Ops left unsettled or rejected by an oracle fail the whole
            # run before this point; simulated refusals and timeouts are
            # the model's outcomes and are what ok_share reports.
            "failed": 0,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared},
        },
    )
    return result


def show(result: Dict[str, Any]) -> None:
    kind = "per-layer (traced run)" if result["traced"] else "end-to-end"
    print(f"== {result['workload']} seed {result['seed']}: {kind}, "
          f"sim_digest {result['digest'][:16]}")
    samples = result.get("samples", {})
    for name, metric in result["line"]["metrics"].items():
        text = f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}"
        values = samples.get(name, ())
        if len(values) > 1:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            text += f"   q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"
        print(text)


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test only")
    parser.add_argument("--out", help="also write every result as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else workload_names
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    try:
        spawn(preflight=True)
        results = []
        for name in names:
            plain = None
            for traced in modes:
                results.append(run_one(spec, name, args.seed, args.seconds,
                                       traced, args.smoke, plain))
                plain = results[-1]["runs"][0]
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for result in results:
        show(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(results[-1]["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
