"""Grid task-to-processor scheduling.

Section 3.7's closing observation: "Similar scheduling concerns arise in
grid computing where middleware must consider the scheduling of tasks to
processors." These are the classic independent-task mapping heuristics on
heterogeneous processors; the E7 bench compares their makespans.

All functions are pure: they take tasks and processors and return a
:class:`GridSchedule` (assignment + makespan) without touching any clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GridTask:
    """An independent task with an abstract amount of work."""

    task_id: str
    work: float  # abstract operations

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ConfigurationError(f"work must be positive, got {self.work!r}")


@dataclass(frozen=True)
class Processor:
    """A processor with a speed (operations per second)."""

    proc_id: str
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {self.speed!r}")

    def runtime(self, task: GridTask) -> float:
        return task.work / self.speed


@dataclass
class GridSchedule:
    """Result of a mapping heuristic."""

    algorithm: str
    assignment: Dict[str, str] = field(default_factory=dict, init=False)  # task -> proc
    finish_times: Dict[str, float] = field(default_factory=dict)  # proc -> busy until

    @property
    def makespan(self) -> float:
        if not self.finish_times:
            return 0.0
        return max(self.finish_times.values())


def _check_inputs(tasks: List[GridTask], processors: List[Processor]) -> None:
    if not processors:
        raise ConfigurationError("need at least one processor")
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate task ids")


def schedule_round_robin(tasks: List[GridTask], processors: List[Processor]) -> GridSchedule:
    """Speed-blind rotation — the naive baseline."""
    _check_inputs(tasks, processors)
    schedule = GridSchedule("round-robin", finish_times={p.proc_id: 0.0 for p in processors})
    for i, task in enumerate(tasks):
        processor = processors[i % len(processors)]
        schedule.assignment[task.task_id] = processor.proc_id
        schedule.finish_times[processor.proc_id] += processor.runtime(task)
    return schedule


def schedule_list(tasks: List[GridTask], processors: List[Processor]) -> GridSchedule:
    """List scheduling: largest task first onto the processor that finishes
    it earliest (a 2-approximation of optimal makespan)."""
    _check_inputs(tasks, processors)
    schedule = GridSchedule("list", finish_times={p.proc_id: 0.0 for p in processors})
    for task in sorted(tasks, key=lambda t: (-t.work, t.task_id)):
        best = min(
            processors,
            key=lambda p: (schedule.finish_times[p.proc_id] + p.runtime(task), p.proc_id),
        )
        schedule.assignment[task.task_id] = best.proc_id
        schedule.finish_times[best.proc_id] += best.runtime(task)
    return schedule


def _min_completion(
    task: GridTask, processors: List[Processor], finish: Dict[str, float]
) -> Tuple[float, Processor]:
    best = min(
        processors, key=lambda p: (finish[p.proc_id] + p.runtime(task), p.proc_id)
    )
    return finish[best.proc_id] + best.runtime(task), best


def _min_min_family(
    tasks: List[GridTask], processors: List[Processor], take_max: bool, name: str
) -> GridSchedule:
    _check_inputs(tasks, processors)
    schedule = GridSchedule(name, finish_times={p.proc_id: 0.0 for p in processors})
    remaining = list(tasks)
    while remaining:
        # For each task, its best completion time; then pick the task whose
        # best completion is smallest (min-min) or largest (max-min).
        choices = [
            (_min_completion(task, processors, schedule.finish_times), task)
            for task in remaining
        ]
        choices.sort(key=lambda entry: (entry[0][0], entry[1].task_id))
        (completion, processor), chosen = choices[-1] if take_max else choices[0]
        schedule.assignment[chosen.task_id] = processor.proc_id
        schedule.finish_times[processor.proc_id] = completion
        remaining.remove(chosen)
    return schedule


def schedule_min_min(tasks: List[GridTask], processors: List[Processor]) -> GridSchedule:
    """Min-min: repeatedly place the task that can finish soonest."""
    return _min_min_family(tasks, processors, take_max=False, name="min-min")


def schedule_max_min(tasks: List[GridTask], processors: List[Processor]) -> GridSchedule:
    """Max-min: repeatedly place the task whose best finish is latest
    (gets big tasks out of the way early)."""
    return _min_min_family(tasks, processors, take_max=True, name="max-min")
