"""E7 — scheduling policies under load (Section 3.7).

Claim under test: "the middleware can decide on interaction order based on
priority or bandwidth constraints" — i.e. policy choice matters. The first
middleware citation in the paper's review (Mizunuma et al. [6]) is
rate-monotonic middleware, so RM is in the lineup.

Periodic task sets at utilizations from 0.5 to 1.2 run under FIFO, static
priority, EDF, and RM; reported: deadline-miss rate and mean response time
per (policy, utilization), plus the drop-late ablation.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import Rows, check, keyed
from repro.netsim.simulator import Simulator
from repro.scheduling.policies import (
    EdfPolicy,
    FifoPolicy,
    PriorityPolicy,
    RateMonotonicPolicy,
)
from repro.scheduling.scheduler import TaskScheduler
from repro.scheduling.task import ScheduledTask

PERIODS = [0.1, 0.2, 0.5, 1.0]
DURATION_S = 100.0

POLICIES = {
    "fifo": FifoPolicy,
    "priority": PriorityPolicy,
    "edf": EdfPolicy,
    "rm": RateMonotonicPolicy,
}


def run_one(policy_name: str, utilization: float, drop_late: bool = False) -> Dict[str, Any]:
    sim = Simulator()
    scheduler = TaskScheduler(sim, POLICIES[policy_name](), drop_late=drop_late)
    for i, period in enumerate(PERIODS):
        scheduler.submit(
            ScheduledTask(
                f"t{i}",
                cost_s=utilization * period / len(PERIODS),
                deadline_s=period,
                period_s=period,
                # Static priorities mimic RM ordering so the priority policy
                # has something sensible to work with.
                priority=len(PERIODS) - i,
            )
        )
    sim.run_until(DURATION_S)
    return {
        "policy": policy_name + ("+drop" if drop_late else ""),
        "utilization": utilization,
        "miss_rate": round(scheduler.miss_rate(), 4),
        "mean_response_s": round(scheduler.mean_response_time(), 4),
        "completed": scheduler.completed,
        "preemptions": scheduler.preemptions,
    }


def run(utilizations=(0.5, 0.7, 0.9, 1.0, 1.1, 1.2)) -> List[Dict[str, Any]]:
    """The E7 table: miss rates per policy across the utilization sweep."""
    rows: List[Dict[str, Any]] = []
    for utilization in utilizations:
        for policy_name in POLICIES:
            rows.append(run_one(policy_name, utilization))
    # Drop-late ablation at overload: wasted work vs abandoned activations.
    rows.append(run_one("edf", 1.2, drop_late=True))
    rows.append(run_one("fifo", 1.2, drop_late=True))
    return rows


def verdict(rows: Rows) -> str:
    at = keyed(rows, "policy", "utilization")

    def miss(policy: str, utilization: float) -> float:
        return at[policy, utilization]["miss_rate"]

    # FIFO suffers early; EDF does not.
    check(miss("fifo", 0.7) > 0.1, f"fifo misses only {miss('fifo', 0.7)} at 0.7")
    check(miss("edf", 0.9) == 0.0, f"edf misses {miss('edf', 0.9)} at 0.9")
    # Below the RM bound for 4 tasks (~0.757).
    check(miss("rm", 0.7) == 0.0, f"rm misses {miss('rm', 0.7)} at 0.7")
    # Overload: EDF thrashes, RM sheds gracefully.
    check(miss("edf", 1.2) > 0.5, f"edf misses only {miss('edf', 1.2)} at 1.2")
    check(miss("rm", 1.2) < miss("edf", 1.2), "rm misses more than edf in overload")
    # Dropping late work beats finishing it uselessly under overload.
    check(miss("edf+drop", 1.2) <= miss("edf", 1.2) + 0.05,
          "dropping late activations made edf worse")
    return (f"holds (at utilization 1.2 rm misses {miss('rm', 1.2):.3f}, edf "
            f"{miss('edf', 1.2):.3f}, edf+drop {miss('edf+drop', 1.2):.3f}; fifo "
            f"already misses {miss('fifo', 0.7):.3f} at 0.7)")
