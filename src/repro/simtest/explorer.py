"""The schedule/fault explorer: many short randomized executions.

Each iteration derives an independent scenario seed and tie-breaker seed
from ``(seed, iteration)``, generates a scenario, and executes it with all
oracles attached. The first diverging scenario is returned for shrinking;
a clean sweep returns aggregate statistics. Everything is a pure function
of the arguments, so a failing iteration number is itself a repro.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.simtest.oracles import Divergence
from repro.simtest.scenario import Scenario, generate_scenario
from repro.simtest.world import execute_scenario
from repro.util.rng import split_rng

#: Step-count range a run draws from when not pinned.
MIN_STEPS = 18
MAX_STEPS = 44


class ExplorationReport:
    """Outcome of one exploration sweep."""

    __slots__ = ("seed", "budget", "runs", "divergent_scenario", "divergences",
                 "totals")

    def __init__(self, seed: int, budget: int) -> None:
        self.seed = seed
        self.budget = budget
        self.runs: int = 0
        self.divergent_scenario: Optional[Scenario] = None
        self.divergences: List[Divergence] = []
        self.totals: Dict[str, int] = {}

    @property
    def ok(self) -> bool:
        return self.divergent_scenario is None


def scenario_for_iteration(seed: int, iteration: int,
                           steps: Optional[int] = None) -> Scenario:
    """The scenario the explorer would run at ``iteration`` — replayable."""
    rng = split_rng(seed, f"simtest.iter.{iteration}")
    scenario_seed = rng.randrange(1 << 31)
    tie_seed = rng.randrange(1 << 31)
    n_steps = steps if steps is not None else rng.randint(MIN_STEPS, MAX_STEPS)
    return generate_scenario(scenario_seed, tie_seed, n_steps)


def explore(
    budget: int,
    seed: int,
    steps: Optional[int] = None,
    plant: Optional[str] = None,
    on_progress: Optional[Callable[[int, Dict[str, int]], None]] = None,
) -> ExplorationReport:
    """Run up to ``budget`` randomized executions; stop at first divergence.

    ``on_progress(iteration, totals)`` is called after each run (the CLI
    uses it for periodic status lines).
    """
    report = ExplorationReport(seed=seed, budget=budget)
    for iteration in range(budget):
        scenario = scenario_for_iteration(seed, iteration, steps)
        result = execute_scenario(scenario, plant)
        report.runs += 1
        for key, value in result.stats.items():
            report.totals[key] = report.totals.get(key, 0) + value
        if on_progress is not None:
            on_progress(iteration, report.totals)
        if result.divergences:
            report.divergent_scenario = scenario
            report.divergences = result.divergences
            break
    return report
