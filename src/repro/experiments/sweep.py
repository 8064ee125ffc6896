"""Multiprocess experiment sweep runner.

The experiment harnesses are single-threaded simulations, so sweeping a
grid of (experiment, seed) configurations is embarrassingly parallel.
:func:`run_sweep` fans the jobs across a ``ProcessPoolExecutor`` and
merges the outcomes **deterministically**: results are returned in
(experiment order, seed order) submission order no matter which worker
finishes first, so a sweep's output — and anything derived from it — is
byte-identical between serial and parallel runs.

CLI::

    python -m repro.experiments sweep                 # list sweepables
    python -m repro.experiments sweep milan --seeds 0-3 --workers 4
    python -m repro.experiments sweep E2b adaptation --seeds 0,2,5 --json out.json

A sweep word resolves against the experiment table
(:data:`repro.experiments.table.EXPERIMENTS`): a CLI word stands for each of
its rows whose ``run`` takes a ``seed``, an id for that row alone, and every
job is judged by its row's verdict. Only (row-id, seed) pairs cross the
process boundary; each worker looks the row up again in its own
interpreter, so rows need not be picklable. :func:`fan_out` is the generic
pool primitive (processes or threads, order-preserving) that
``benchmarks/run_benchmarks.py --jobs N`` reuses to parallelize the bench
files.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import workloads
from repro.errors import ConfigurationError
from repro.experiments import table

SweepJob = Tuple[str, int]
SweepOutcome = Dict[str, Any]

#: Registered workload scenarios are sweep axes too, addressed as
#: ``workload:<archetype>:<traffic>`` — one axis per scenario, resolved
#: dynamically so a newly registered archetype needs no sweep change.
WORKLOAD_PREFIX = "workload:"


def sweepable_names() -> List[str]:
    """Every CLI word with at least one seeded row, in table order."""
    return list(dict.fromkeys(
        row.name for row in table.EXPERIMENTS if row.seeded))


def _job_keys(word: str) -> List[str]:
    """The job keys a sweep word stands for: a workload axis as it is, a
    table word as the ids of its seeded rows. Raises ``ValueError`` saying
    why a word cannot be swept."""
    if word.startswith(WORKLOAD_PREFIX):
        try:
            workloads.parse_scenario(word[len(WORKLOAD_PREFIX):])
        except ConfigurationError as exc:
            raise ValueError(f"unknown sweepable {word!r}: {exc}") from None
        return [word]
    rows = table.find(word)
    if not rows:
        raise ValueError(f"unknown sweepable {word!r}")
    seeded = [row.id for row in rows if row.seeded]
    if not seeded:
        ids = ", ".join(row.id for row in rows)
        raise ValueError(f"{word!r} cannot be swept: the run of {ids} takes no seed")
    return seeded


# --------------------------------------------------------------------------
# Generic fan-out
# --------------------------------------------------------------------------


def fan_out(
    jobs: Sequence[Any],
    worker: Callable[[Any], Any],
    max_workers: Optional[int] = None,
    use_processes: bool = True,
    on_result: Optional[Callable[[Any, Any], None]] = None,
) -> List[Any]:
    """Run ``worker`` over ``jobs`` concurrently; results in job order.

    ``max_workers <= 1`` runs serially in-process (no pool, debuggable,
    exceptions propagate). With processes, ``worker`` must be a
    module-level callable (pickled by reference); with threads
    (``use_processes=False``) any callable works — right for workers that
    mostly wait on subprocesses. ``on_result(job, result)`` fires as each
    job completes (completion order, progress reporting only).
    """
    if max_workers is not None and max_workers <= 1:
        results = []
        for job in jobs:
            result = worker(job)
            if on_result is not None:
                on_result(job, result)
            results.append(result)
        return results
    pool_class = ProcessPoolExecutor if use_processes else ThreadPoolExecutor
    results: List[Any] = [None] * len(jobs)
    with pool_class(max_workers=max_workers) as pool:
        index_of = {pool.submit(worker, job): i for i, job in enumerate(jobs)}
        for future in as_completed(index_of):
            i = index_of[future]
            results[i] = future.result()
            if on_result is not None:
                on_result(jobs[i], results[i])
    return results


# --------------------------------------------------------------------------
# The sweep itself
# --------------------------------------------------------------------------


def _run_job(job: SweepJob) -> SweepOutcome:
    """Worker body: run and judge one (row-id or workload axis, seed) job.

    Failures — a run that raises, a verdict that finds its table out of
    shape — are captured into the outcome rather than raised, so one bad
    configuration cannot tear down the pool or perturb the deterministic
    merge of the others.
    """
    key, seed = job
    started = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    verdict = error = None
    try:
        if key.startswith(WORKLOAD_PREFIX):
            rows = [workloads.sweep_rows(key[len(WORKLOAD_PREFIX):], seed)]
        else:
            (row,) = table.find(key)
            rows = row.run(seed=seed)
            verdict = row.judge(rows)
    except Exception as exc:  # noqa: BLE001 - reported per-job, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return {
        "experiment": key,
        "seed": seed,
        "rows": rows,
        "verdict": verdict,
        "error": error,
        "wall_s": round(time.perf_counter() - started, 6),
        "pid": os.getpid(),
    }


def run_sweep(
    experiments: Sequence[str],
    seeds: Sequence[int],
    max_workers: Optional[int] = None,
    use_processes: bool = True,
    on_result: Optional[Callable[[SweepJob, SweepOutcome], None]] = None,
) -> List[SweepOutcome]:
    """Fan experiments x seeds across a process pool; merge deterministically.

    The outcome list is ordered by (position in ``experiments``, the word's
    rows in table order, position in ``seeds``) — the submission grid —
    regardless of worker completion order, so a sweep is reproducible and
    diffable across worker counts.
    """
    keys: List[str] = []
    refused: List[str] = []
    for word in experiments:
        try:
            keys += _job_keys(word)
        except ValueError as exc:
            refused.append(str(exc))
    if refused:
        raise ValueError(
            f"{'; '.join(refused)}; available: {sweepable_names()} plus "
            f"'{WORKLOAD_PREFIX}<archetype>:<traffic>'"
        )
    jobs: List[SweepJob] = [(key, seed) for key in keys for seed in seeds]
    return fan_out(
        jobs, _run_job, max_workers=max_workers,
        use_processes=use_processes, on_result=on_result,
    )


def merged_rows(outcomes: Sequence[SweepOutcome]) -> List[Dict[str, Any]]:
    """Flatten outcomes into one row list, tagging experiment and seed.

    Failed jobs contribute a single error row so they stay visible in the
    merged table instead of silently shrinking it.
    """
    rows: List[Dict[str, Any]] = []
    for outcome in outcomes:
        prefix = {"experiment": outcome["experiment"], "seed": outcome["seed"]}
        if outcome["error"] is not None:
            rows.append({**prefix, "error": outcome["error"]})
            continue
        for row in outcome["rows"]:
            rows.append({**prefix, **row})
    return rows
