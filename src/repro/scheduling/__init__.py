"""Scheduling (Section 3.7).

The paper asks the middleware to "decide on interaction order based on
priority or bandwidth constraints", to finish or hand off transactions whose
suppliers are about to leave, and notes the same concerns in grid computing.
Correspondingly:

* :mod:`repro.scheduling.task` / :mod:`repro.scheduling.policies` /
  :mod:`repro.scheduling.scheduler` — a preemptive virtual-processor
  scheduler with FIFO, static-priority, EDF, and rate-monotonic policies
  (the paper's first middleware citation, Mizunuma et al. [6], is
  rate-monotonic middleware),
* :mod:`repro.scheduling.handoff` — proactive transaction handoff for
  suppliers moving out of range,
* :mod:`repro.scheduling.gridsched` — task-to-processor scheduling
  (list scheduling, min-min, max-min).

Bandwidth constraints are :class:`repro.qos.bandwidth.BandwidthAllocator`,
one layer down, where the transport's pacer and the admission controller
charge it too.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "GridTask": "repro.scheduling.gridsched",
    "Processor": "repro.scheduling.gridsched",
    "schedule_list": "repro.scheduling.gridsched",
    "schedule_max_min": "repro.scheduling.gridsched",
    "schedule_min_min": "repro.scheduling.gridsched",
    "schedule_round_robin": "repro.scheduling.gridsched",
    "HandoffManager": "repro.scheduling.handoff",
    "EdfPolicy": "repro.scheduling.policies",
    "FifoPolicy": "repro.scheduling.policies",
    "PriorityPolicy": "repro.scheduling.policies",
    "RateMonotonicPolicy": "repro.scheduling.policies",
    "TaskScheduler": "repro.scheduling.scheduler",
    "ScheduledTask": "repro.scheduling.task",
})
