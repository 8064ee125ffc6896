"""Property-based tests on networking invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.naming.names import LogicalName
from repro.scheduling.gridsched import (
    GridTask,
    Processor,
    schedule_list,
    schedule_min_min,
    schedule_round_robin,
)
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.reliable import ReliabilityParams, ReliableTransport


class TestReliableDeliveryProperties:
    @given(
        seed=st.integers(0, 10**6),
        loss=st.floats(min_value=0.0, max_value=0.45),
        count=st.integers(1, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_exactly_once_delivery_under_loss(self, seed, loss, count):
        """Every message arrives exactly once, for any loss level the
        retry budget can beat."""
        fabric = InMemoryFabric(latency_s=0.01, loss_probability=loss, seed=seed)
        params = ReliabilityParams(ack_timeout_s=0.05, max_retries=25)
        sender = ReliableTransport(fabric.endpoint("a"), params)
        receiver = ReliableTransport(fabric.endpoint("b"), params)
        got = []
        receiver.set_receiver(lambda src, data: got.append(data))
        for i in range(count):
            sender.send(Address("b"), i.to_bytes(4, "big"))
        fabric.run()
        assert sorted(got) == [i.to_bytes(4, "big") for i in range(count)]

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_no_spurious_deliveries(self, seed):
        """Retransmissions never create messages that were not sent."""
        fabric = InMemoryFabric(latency_s=0.01, loss_probability=0.4, seed=seed)
        params = ReliabilityParams(ack_timeout_s=0.05, max_retries=20)
        sender = ReliableTransport(fabric.endpoint("a"), params)
        receiver = ReliableTransport(fabric.endpoint("b"), params)
        got = []
        receiver.set_receiver(lambda src, data: got.append(data))
        sent = {f"m{i}".encode() for i in range(10)}
        for payload in sorted(sent):
            sender.send(Address("b"), payload)
        fabric.run()
        assert set(got) <= sent
        assert len(got) == len(set(got))


class TestLogicalNameProperties:
    _segment = st.text(string.ascii_lowercase + string.digits + "-_.",
                       min_size=1, max_size=8)

    @given(st.lists(_segment, min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_parse_str_round_trip(self, segments):
        name = LogicalName(tuple(segments))
        assert LogicalName.parse(str(name)) == name

    @given(st.lists(_segment, min_size=2, max_size=5))
    @settings(max_examples=100)
    def test_parent_is_prefix(self, segments):
        name = LogicalName(tuple(segments))
        assert name.parent.is_prefix_of(name)
        assert not name.is_prefix_of(name.parent)


class TestGridSchedulerProperties:
    _tasks = st.lists(
        st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=20,
    )
    _speeds = st.lists(
        st.floats(min_value=0.5, max_value=4.0), min_size=1, max_size=4,
    )

    @given(_tasks, _speeds)
    @settings(max_examples=60)
    def test_makespan_at_least_lower_bound(self, works, speeds):
        tasks = [GridTask(f"t{i}", w) for i, w in enumerate(works)]
        processors = [Processor(f"p{i}", s) for i, s in enumerate(speeds)]
        lower_bound = sum(works) / sum(speeds)
        for algorithm in (schedule_round_robin, schedule_list, schedule_min_min):
            assert algorithm(tasks, processors).makespan >= lower_bound - 1e-9

    @given(_tasks, _speeds)
    @settings(max_examples=60)
    def test_list_scheduling_within_2x_bound(self, works, speeds):
        """Greedy list scheduling is a 2-approximation: makespan <=
        lower_bound + max_single_task_runtime."""
        tasks = [GridTask(f"t{i}", w) for i, w in enumerate(works)]
        processors = [Processor(f"p{i}", s) for i, s in enumerate(speeds)]
        lower_bound = sum(works) / sum(speeds)
        slowest_single = max(w / max(speeds) for w in works)
        result = schedule_list(tasks, processors)
        assert result.makespan <= lower_bound + max(
            w / s for w in works for s in speeds
        ) + 1e-9

    @given(_tasks, _speeds)
    @settings(max_examples=60)
    def test_finish_times_consistent_with_assignment(self, works, speeds):
        tasks = [GridTask(f"t{i}", w) for i, w in enumerate(works)]
        processors = {f"p{i}": s for i, s in enumerate(speeds)}
        result = schedule_list(tasks, [Processor(p, s) for p, s in processors.items()])
        loads = {p: 0.0 for p in processors}
        for task in tasks:
            proc = result.assignment[task.task_id]
            loads[proc] += task.work / processors[proc]
        for proc, load in loads.items():
            assert abs(load - result.finish_times[proc]) < 1e-6
