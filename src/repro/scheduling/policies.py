"""Scheduling policies.

A policy maps a ready task to a sortable key; the scheduler always runs the
task with the smallest key and preempts when a smaller key arrives. Ties
break on activation time then task id, keeping runs deterministic.
"""

from __future__ import annotations

from typing import Protocol, Tuple, runtime_checkable

from repro.scheduling.task import ScheduledTask

Key = Tuple[float, float, str]


@runtime_checkable
class SchedulingPolicy(Protocol):
    """Smaller key = runs first."""

    name: str

    def key(self, task: ScheduledTask, now: float) -> Key:
        ...


class FifoPolicy:
    """First come, first served — the no-policy baseline."""

    name = "fifo"

    def key(self, task: ScheduledTask, now: float) -> Key:
        return (task.activation_time, task.activation_time, task.task_id)


class PriorityPolicy:
    """Static priority (larger ``priority`` runs first)."""

    name = "priority"

    def key(self, task: ScheduledTask, now: float) -> Key:
        return (-float(task.priority), task.activation_time, task.task_id)


class EdfPolicy:
    """Earliest deadline first — optimal on a single processor."""

    name = "edf"

    def key(self, task: ScheduledTask, now: float) -> Key:
        return (task.absolute_deadline(), task.activation_time, task.task_id)


class RateMonotonicPolicy:
    """Shorter period = higher priority; aperiodic tasks run in the
    background (after all periodic ones)."""

    name = "rm"

    def key(self, task: ScheduledTask, now: float) -> Key:
        period = task.period_s if task.period_s is not None else float("inf")
        return (period, task.activation_time, task.task_id)
