"""The preemptive virtual-processor scheduler.

Models one unit-speed processor executing middleware work over the
simulator's virtual time. The policy picks which ready *activation* runs; a
newly arriving activation with a smaller key preempts the running one (its
remaining cost is preserved). Each activation of a periodic task is its own
record, so a task re-arriving while its previous activation still queues
(the overload case) is handled correctly.

Deadline misses are detected at completion; with ``drop_late`` the
activation is abandoned at its deadline instead of finishing uselessly —
which of these a system wants is application-specific, so both are
supported and benchmarked.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.netsim.simulator import EventHandle, Simulator
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.task import ScheduledTask
from repro.util.events import EventEmitter


class _Activation:
    """One arrival of a task: its own clock and remaining cost."""

    __slots__ = ("task", "activation_time", "remaining_s", "index")

    def __init__(self, task: ScheduledTask, activation_time: float,
                 remaining_s: float, index: int) -> None:
        self.task = task
        self.activation_time = activation_time
        self.remaining_s = remaining_s
        self.index = index  # per-task activation counter

    def absolute_deadline(self) -> float:
        if self.task.deadline_s is None:
            return float("inf")
        return self.activation_time + self.task.deadline_s

    def key_view(self) -> ScheduledTask:
        """A task view whose per-activation fields reflect this activation.

        Policies read ``activation_time`` / ``absolute_deadline`` from the
        task, so we materialize them here without mutating shared state
        beyond these two scratch fields (safe: keys are computed
        synchronously).
        """
        self.task.activation_time = self.activation_time
        return self.task


class TaskScheduler:
    """Single-processor preemptive scheduler.

    Events (via :attr:`events`): ``"completed"`` (task, response_time_s),
    ``"missed"`` (task, lateness_s), ``"dropped"`` (task).
    """

    def __init__(
        self,
        sim: Simulator,
        policy: SchedulingPolicy,
        drop_late: bool = False,
    ):
        self.sim = sim
        self.policy = policy
        self.drop_late = drop_late
        self.events = EventEmitter()
        self._task_ids: Set[str] = set()
        self._ready: List[_Activation] = []
        self._running: Optional[_Activation] = None
        self._running_started = 0.0
        self._completion_handle: Optional[EventHandle] = None
        self._cancelled: Set[str] = set()
        self.completed = 0
        self.missed = 0
        self.dropped = 0
        self.preemptions = 0
        self.response_times: List[float] = []

    # ------------------------------------------------------------- submitting

    def submit(self, task: ScheduledTask, delay_s: float = 0.0) -> None:
        """Add a task; its first activation happens after ``delay_s``."""
        self._task_ids.add(task.task_id)
        self._cancelled.discard(task.task_id)
        self.sim.schedule(delay_s, self._activate, task)

    def cancel(self, task_id: str) -> None:
        """Stop future activations (queued/running ones finish normally)."""
        self._cancelled.add(task_id)

    # ------------------------------------------------------------- activation

    def _activate(self, task: ScheduledTask) -> None:
        if task.task_id in self._cancelled:
            return
        task.activations += 1
        activation = _Activation(
            task, self.sim.now(), task.cost_s, task.activations
        )
        if task.periodic:
            self.sim.schedule(task.period_s, self._activate, task)
        if self.drop_late and task.deadline_s is not None:
            self.sim.schedule(task.deadline_s, self._deadline_check, activation)
        self._ready.append(activation)
        self._dispatch()

    # --------------------------------------------------------------- dispatch

    def _key(self, activation: _Activation) -> tuple:
        return self.policy.key(activation.key_view(), self.sim.now())

    def _dispatch(self) -> None:
        if not self._ready:
            return
        best = min(self._ready, key=self._key)
        if self._running is None:
            self._start(best)
            return
        if self._key(best) < self._key(self._running):
            self._preempt()
            self._start(min(self._ready, key=self._key))

    def _start(self, activation: _Activation) -> None:
        self._ready.remove(activation)
        self._running = activation
        self._running_started = self.sim.now()
        self._completion_handle = self.sim.schedule(
            activation.remaining_s, self._complete, activation
        )

    def _preempt(self) -> None:
        assert self._running is not None
        executed = self.sim.now() - self._running_started
        self._running.remaining_s = max(0.0, self._running.remaining_s - executed)
        if self._completion_handle is not None:
            self._completion_handle.cancel()
        self.preemptions += 1
        self._ready.append(self._running)
        self._running = None

    def _complete(self, activation: _Activation) -> None:
        self._running = None
        self._completion_handle = None
        now = self.sim.now()
        task = activation.task
        response = now - activation.activation_time
        task.completions += 1
        self.completed += 1
        self.response_times.append(response)
        if task.deadline_s is not None and response > task.deadline_s + 1e-12:
            task.misses += 1
            self.missed += 1
            self.events.emit("missed", task, response - task.deadline_s)
        else:
            self.events.emit("completed", task, response)
        if task.action is not None:
            task.action()
        self._dispatch()

    def _deadline_check(self, activation: _Activation) -> None:
        """drop_late mode: abandon an activation that reached its deadline."""
        if self._running is activation:
            if self._completion_handle is not None:
                self._completion_handle.cancel()
            self._running = None
            self._completion_handle = None
        elif activation in self._ready:
            self._ready.remove(activation)
        else:
            return  # already completed
        task = activation.task
        task.misses += 1
        self.dropped += 1
        self.missed += 1
        self.events.emit("dropped", task)
        self.events.emit("missed", task, 0.0)
        self._dispatch()

    # ---------------------------------------------------------------- metrics

    def miss_rate(self) -> float:
        total = self.completed + self.dropped
        if total == 0:
            return 0.0
        return self.missed / total

    def mean_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)
