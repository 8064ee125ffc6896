"""Schedulable tasks.

A :class:`ScheduledTask` is a unit of middleware work — typically the
processing step of one transaction delivery — with a cost (execution time on
the virtual processor), an optional relative deadline, a priority, and an
optional period (periodic tasks re-arrive automatically).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConfigurationError

Action = Callable[[], Any]


class ScheduledTask:
    """One schedulable unit.

    Attributes:
        task_id: unique identifier.
        cost_s: processor time a single activation consumes.
        deadline_s: relative deadline from activation (None = best-effort).
        priority: larger = more urgent (used by PriorityPolicy).
        period_s: re-activation period (None = one-shot).
        action: optional callback run at completion of each activation.
    """

    __slots__ = ("task_id", "cost_s", "deadline_s", "priority", "period_s",
                 "action", "activation_time", "remaining_s", "activations",
                 "completions", "misses")

    def __init__(self, task_id: str, cost_s: float,
                 deadline_s: Optional[float] = None, priority: int = 0,
                 period_s: Optional[float] = None,
                 action: Optional[Action] = None) -> None:
        self.task_id = task_id
        self.cost_s = cost_s
        self.deadline_s = deadline_s
        self.priority = priority
        self.period_s = period_s
        self.action = action
        # Per-activation bookkeeping, managed by the scheduler.
        self.activation_time: float = 0.0
        self.remaining_s: float = 0.0
        self.activations: int = 0
        self.completions: int = 0
        self.misses: int = 0
        if self.cost_s <= 0:
            raise ConfigurationError(f"task cost must be positive, got {self.cost_s!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline must be positive, got {self.deadline_s!r}"
            )
        if self.period_s is not None and self.period_s <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period_s!r}")

    @property
    def periodic(self) -> bool:
        return self.period_s is not None

    def absolute_deadline(self) -> float:
        """Deadline of the current activation (inf when best-effort)."""
        if self.deadline_s is None:
            return float("inf")
        return self.activation_time + self.deadline_s
