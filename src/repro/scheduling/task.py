"""Schedulable tasks.

A :class:`ScheduledTask` is a unit of middleware work — typically the
processing step of one transaction delivery — with a cost (execution time on
the virtual processor), an optional relative deadline, a priority, and an
optional period (periodic tasks re-arrive automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError

Action = Callable[[], Any]


@dataclass
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

    task_id: str
    cost_s: float
    deadline_s: Optional[float] = None
    priority: int = 0
    period_s: Optional[float] = None
    action: Optional[Action] = field(default=None, repr=False)

    # Per-activation bookkeeping, managed by the scheduler.
    activation_time: float = field(default=0.0, init=False)
    remaining_s: float = field(default=0.0, init=False)
    activations: int = field(default=0, init=False)
    completions: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
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

    @property
    def utilization(self) -> float:
        """cost/period for periodic tasks; 0 for one-shots."""
        if self.period_s is None:
            return 0.0
        return self.cost_s / self.period_s

    def absolute_deadline(self) -> float:
        """Deadline of the current activation (inf when best-effort)."""
        if self.deadline_s is None:
            return float("inf")
        return self.activation_time + self.deadline_s
