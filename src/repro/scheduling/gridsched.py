"""Grid task-to-processor scheduling.

Section 3.7's closing observation: "Similar scheduling concerns arise in
grid computing where middleware must consider the scheduling of tasks to
processors." These are the classic independent-task mapping heuristics on
heterogeneous processors; the E7 bench compares their makespans.

All functions are pure: they take tasks and processors and return a
:class:`GridSchedule` (assignment + makespan) without touching any clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


class GridTask:
    """An independent task with an abstract amount of work."""

    __slots__ = ("task_id", "work")

    def __init__(self, task_id: str, work: float) -> None:
        self.task_id = task_id
        self.work = work  # abstract operations
        if self.work <= 0:
            raise ConfigurationError(f"work must be positive, got {self.work!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.task_id, self.work) == (other.task_id, other.work)

    def __hash__(self) -> int:
        return hash((self.task_id, self.work))


class Processor:
    """A processor with a speed (operations per second)."""

    __slots__ = ("proc_id", "speed")

    def __init__(self, proc_id: str, speed: float = 1.0) -> None:
        self.proc_id = proc_id
        self.speed = speed
        if self.speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {self.speed!r}")

    def runtime(self, task: GridTask) -> float:
        return task.work / self.speed


class GridSchedule:
    """Result of a mapping heuristic."""

    __slots__ = ("algorithm", "assignment", "finish_times")

    def __init__(self, algorithm: str,
                 finish_times: Optional[Dict[str, float]] = None) -> None:
        self.algorithm = algorithm
        self.assignment: Dict[str, str] = {}  # task -> proc
        # proc -> busy until
        self.finish_times = {} if finish_times is None else finish_times

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
