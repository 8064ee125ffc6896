"""Tests for scheduling: policies, the scheduler, bandwidth, grid mapping."""

import pytest

from repro.errors import AdmissionRefused, ConfigurationError
from repro.netsim.simulator import Simulator
from repro.qos.bandwidth import BandwidthAllocator, TokenBucket
from repro.scheduling.gridsched import (
    GridTask,
    Processor,
    schedule_list,
    schedule_max_min,
    schedule_min_min,
    schedule_round_robin,
)
from repro.scheduling.policies import (
    EdfPolicy,
    FifoPolicy,
    PriorityPolicy,
    RateMonotonicPolicy,
)
from repro.scheduling.scheduler import TaskScheduler
from repro.scheduling.task import ScheduledTask


def run_periodic(policy, utilization, duration=50.0, drop_late=False):
    sim = Simulator()
    scheduler = TaskScheduler(sim, policy, drop_late=drop_late)
    periods = [0.1, 0.2, 0.5]
    for i, period in enumerate(periods):
        scheduler.submit(ScheduledTask(
            f"t{i}", cost_s=utilization * period / len(periods),
            deadline_s=period, period_s=period,
        ))
    sim.run_until(duration)
    return scheduler


class TestTask:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduledTask("t", cost_s=0)
        with pytest.raises(ConfigurationError):
            ScheduledTask("t", cost_s=1, deadline_s=0)
        with pytest.raises(ConfigurationError):
            ScheduledTask("t", cost_s=1, period_s=-1)

    def test_absolute_deadline(self):
        task = ScheduledTask("t", cost_s=0.1, deadline_s=2.0)
        task.activation_time = 5.0
        assert task.absolute_deadline() == 7.0
        assert ScheduledTask("t2", cost_s=0.1).absolute_deadline() == float("inf")


class TestScheduler:
    def test_one_shot_runs_and_completes(self):
        sim = Simulator()
        scheduler = TaskScheduler(sim, FifoPolicy())
        done = []
        scheduler.submit(ScheduledTask("t", cost_s=0.5, action=lambda: done.append(1)))
        sim.run_until(2.0)
        assert done == [1]
        assert scheduler.completed == 1

    def test_edf_meets_deadlines_below_full_utilization(self):
        scheduler = run_periodic(EdfPolicy(), utilization=0.95)
        assert scheduler.miss_rate() == 0.0

    def test_fifo_misses_before_edf(self):
        fifo = run_periodic(FifoPolicy(), utilization=0.8)
        edf = run_periodic(EdfPolicy(), utilization=0.8)
        assert fifo.miss_rate() > edf.miss_rate() == 0.0

    def test_overload_causes_misses(self):
        scheduler = run_periodic(EdfPolicy(), utilization=1.2)
        assert scheduler.miss_rate() > 0.5

    def test_rm_degrades_gracefully_in_overload(self):
        rm = run_periodic(RateMonotonicPolicy(), utilization=1.2)
        edf = run_periodic(EdfPolicy(), utilization=1.2)
        # RM sheds load onto the long-period task; EDF thrashes everything.
        assert rm.miss_rate() < edf.miss_rate()

    def test_priority_policy_prefers_urgent(self):
        sim = Simulator()
        scheduler = TaskScheduler(sim, PriorityPolicy())
        order = []
        scheduler.submit(ScheduledTask("low", cost_s=0.1, priority=1,
                                       action=lambda: order.append("low")))
        scheduler.submit(ScheduledTask("high", cost_s=0.1, priority=10,
                                       action=lambda: order.append("high")))
        sim.run_until(1.0)
        assert order == ["high", "low"]

    def test_preemption_happens(self):
        sim = Simulator()
        scheduler = TaskScheduler(sim, PriorityPolicy())
        scheduler.submit(ScheduledTask("long", cost_s=2.0, priority=0))
        scheduler.submit(ScheduledTask("urgent", cost_s=0.1, priority=5), delay_s=0.5)
        sim.run_until(5.0)
        assert scheduler.preemptions == 1
        assert scheduler.completed == 2

    def test_preempted_task_keeps_progress(self):
        sim = Simulator()
        scheduler = TaskScheduler(sim, PriorityPolicy())
        finish_times = {}
        scheduler.events.on("completed",
                            lambda task, r: finish_times.setdefault(task.task_id, sim.now()))
        scheduler.submit(ScheduledTask("long", cost_s=2.0, priority=0))
        scheduler.submit(ScheduledTask("urgent", cost_s=0.5, priority=5), delay_s=1.0)
        sim.run_until(10.0)
        # long: 1.0 before preemption + 1.0 after urgent's 0.5 => finishes 2.5
        assert finish_times["long"] == pytest.approx(2.5)

    def test_drop_late_abandons_at_deadline(self):
        sim = Simulator()
        scheduler = TaskScheduler(sim, FifoPolicy(), drop_late=True)
        scheduler.submit(ScheduledTask("blocker", cost_s=1.0))
        scheduler.submit(ScheduledTask("doomed", cost_s=0.5, deadline_s=0.5))
        sim.run_until(5.0)
        assert scheduler.dropped == 1
        assert scheduler.completed == 1  # only the blocker finished

    def test_cancel_stops_future_activations(self):
        sim = Simulator()
        scheduler = TaskScheduler(sim, FifoPolicy())
        task = ScheduledTask("p", cost_s=0.01, period_s=1.0)
        scheduler.submit(task)
        sim.run_until(3.5)
        scheduler.cancel("p")
        completions = task.completions
        sim.run_until(10.0)
        assert task.completions == completions

    def test_overlapping_activations_counted_separately(self):
        # One task at 150% utilization by itself: every activation completes
        # but responses lag more and more.
        sim = Simulator()
        scheduler = TaskScheduler(sim, FifoPolicy())
        scheduler.submit(ScheduledTask("hog", cost_s=1.5, period_s=1.0, deadline_s=1.0))
        sim.run_until(10.0)
        assert scheduler.missed > 0
        assert scheduler.completed >= 5


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate_bps=1000, burst_bits=500)
        assert bucket.try_consume(500, now=0.0)
        assert not bucket.try_consume(1, now=0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_bps=1000, burst_bits=500)
        bucket.try_consume(500, now=0.0)
        assert bucket.try_consume(400, now=0.4)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_bps=1000, burst_bits=500)
        assert not bucket.try_consume(600, now=100.0)

    def test_time_until_available(self):
        bucket = TokenBucket(rate_bps=1000, burst_bits=500)
        bucket.try_consume(500, now=0.0)
        assert bucket.time_until_available(100, now=0.0) == pytest.approx(0.1)
        assert bucket.time_until_available(1000, now=0.0) == float("inf")


class TestBandwidthAllocator:
    def test_admission_control(self):
        allocator = BandwidthAllocator(10000)
        allocator.reserve("a", 6000)
        with pytest.raises(AdmissionRefused):
            allocator.reserve("b", 5000)
        allocator.reserve("b", 4000)
        assert allocator._reserved_bps == allocator.capacity_bps

    def test_release_frees_capacity(self):
        allocator = BandwidthAllocator(10000)
        allocator.reserve("a", 8000)
        allocator.release("a")
        allocator.reserve("b", 9000)

    def test_flow_paced_at_reservation(self):
        allocator = BandwidthAllocator(10000, burst_s=1.0)
        allocator.reserve("a", 1000)
        assert allocator.try_send("a", 1000, now=0.0)
        assert not allocator.try_send("a", 1000, now=0.0)

    def test_privileged_flow_borrows_headroom(self):
        allocator = BandwidthAllocator(10000, burst_s=1.0)
        allocator.reserve("vip", 1000, privileged=True)
        allocator.reserve("normal", 1000)
        assert allocator.try_send("vip", 1000, now=0.0)   # own bucket
        assert allocator.try_send("vip", 4000, now=0.0)   # headroom (8000 free)
        assert not allocator.try_send("normal", 4000, now=0.0)

    def test_unknown_flow_rejected(self):
        allocator = BandwidthAllocator(1000)
        with pytest.raises(ConfigurationError):
            allocator.try_send("ghost", 1, now=0.0)


class TestGridScheduling:
    def make_workload(self):
        tasks = [GridTask(f"j{i}", work=(i % 5 + 1) * 10.0) for i in range(30)]
        processors = [Processor("fast", 2.0), Processor("slow", 0.5),
                      Processor("mid", 1.0)]
        return tasks, processors

    def test_all_tasks_assigned(self):
        tasks, processors = self.make_workload()
        for algorithm in (schedule_round_robin, schedule_list,
                          schedule_min_min, schedule_max_min):
            result = algorithm(tasks, processors)
            assert len(result.assignment) == len(tasks)
            assert set(result.assignment.values()) <= {p.proc_id for p in processors}

    def test_heuristics_beat_round_robin(self):
        tasks, processors = self.make_workload()
        baseline = schedule_round_robin(tasks, processors).makespan
        for algorithm in (schedule_list, schedule_min_min, schedule_max_min):
            assert algorithm(tasks, processors).makespan < baseline

    def test_single_processor_makespan_is_total_work(self):
        tasks = [GridTask("a", 10), GridTask("b", 20)]
        result = schedule_list(tasks, [Processor("p", speed=1.0)])
        assert result.makespan == pytest.approx(30.0)

    def test_faster_processor_gets_more_work(self):
        tasks = [GridTask(f"t{i}", 10.0) for i in range(10)]
        result = schedule_list(tasks, [Processor("fast", 4.0), Processor("slow", 1.0)])
        fast_count = sum(1 for p in result.assignment.values() if p == "fast")
        assert fast_count > 5

    def test_empty_processor_list_rejected(self):
        with pytest.raises(ConfigurationError):
            schedule_list([GridTask("a", 1)], [])

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            schedule_list([GridTask("a", 1), GridTask("a", 2)], [Processor("p")])

    def test_deterministic(self):
        tasks, processors = self.make_workload()
        first = schedule_min_min(tasks, processors)
        second = schedule_min_min(tasks, processors)
        assert first.assignment == second.assignment
