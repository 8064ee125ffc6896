"""Observability overhead benchmarks.

Rows come in pairs over one instrumented hot path: the reliable send
with ``TRACER.enabled`` False and True, and the simulator loop with
tracing off and with the loop profiler on. A pair records what switching
the instrumentation on costs; a disabled row's own history records what
its guards cost over time. No row runs an uninstrumented twin, so the
cost of the guards against code without them is not measured here. The
span lifecycle has a row of its own.

Run via ``benchmarks/run_benchmarks.py`` (which also runs bench_micro.py).
"""

from __future__ import annotations

import pytest

from repro.netsim.simulator import Simulator
from repro.obs.profiler import LoopProfiler
from repro.obs.tracing import TRACER
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.stack import build_stack

N_EVENTS = 1000
N_MESSAGES = 200


@pytest.fixture(autouse=True)
def _tracer_disabled():
    TRACER.disable()
    yield
    TRACER.disable()


def _chain_events(sim: Simulator, n: int) -> None:
    remaining = [n]

    def fire() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, fire)

    sim.schedule(0.001, fire)
    sim.run()


def test_simulator_throughput_tracing_disabled(benchmark):
    """The bench compared against bench_micro's event throughput: the

    instrumented simulator with no profiler and tracing off."""

    def run() -> None:
        _chain_events(Simulator(), N_EVENTS)

    benchmark(run)


def test_simulator_throughput_with_profiler(benchmark):
    def run() -> None:
        sim = Simulator()
        LoopProfiler.attach(sim)
        _chain_events(sim, N_EVENTS)

    benchmark(run)


def _reliable_burst() -> None:
    fabric = InMemoryFabric(latency_s=0.001)
    a = build_stack(fabric.endpoint("a"))
    b = build_stack(fabric.endpoint("b"))
    b.set_receiver(lambda source, payload: None)
    destination = Address("b")
    for i in range(N_MESSAGES):
        a.send(destination, b"x" * 32)
    fabric.run()


def test_reliable_send_tracing_disabled(benchmark):
    benchmark(_reliable_burst)


def test_reliable_send_tracing_enabled(benchmark):
    def run() -> None:
        TRACER.enable(seed=0)
        try:
            _reliable_burst()
        finally:
            TRACER.disable()

    benchmark(run)


def test_span_lifecycle(benchmark):
    TRACER.enable(seed=0)

    def run() -> None:
        TRACER.reset()
        for _ in range(100):
            with TRACER.span("bench.outer", node="a"):
                with TRACER.span("bench.inner"):
                    pass

    benchmark(run)
    TRACER.disable()
