"""Tests for the simulator's clock: where time starts and how it moves.

The simulator owns its virtual time; these are the guarantees a clock
gives, pinned on :class:`Simulator` itself. Time never moves backwards.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.simulator import Simulator
from repro.obs import TRACER


class TestManualClock:
    def test_starts_at_zero(self):
        assert Simulator().now() == 0.0

    def test_starts_at_given_time(self):
        sim = Simulator(5)
        assert sim.now() == 5.0
        assert isinstance(sim.now(), float)

    def test_rejects_negative_start(self):
        with pytest.raises(SimulationError):
            Simulator(-1.0)

    def test_advance_moves_time(self):
        sim = Simulator()
        sim.run_for(2.5)
        assert sim.now() == 2.5

    def test_advance_accumulates(self):
        sim = Simulator()
        sim.run_for(1.0)
        sim.run_for(0.5)
        assert sim.now() == 1.5

    def test_advance_rejects_negative(self):
        sim = Simulator(3.0)
        sim.run_for(-0.1)
        assert sim.now() == 3.0

    def test_set_jumps_forward(self):
        sim = Simulator()
        sim.run_until(10)
        assert sim.now() == 10.0
        assert isinstance(sim.now(), float)

    def test_set_rejects_backwards(self):
        sim = Simulator(5.0)
        fired = []
        sim.schedule_at(6.0, fired.append, "later")
        sim.run_until(4.9)  # an earlier deadline keeps the time
        assert sim.now() == 5.0
        assert fired == [] and sim._live == 1
        with pytest.raises(SimulationError):
            sim.schedule_at(4.9, fired.append, "past")

    def test_set_same_time_is_allowed(self):
        sim = Simulator(5.0)
        fired = []
        sim.schedule_at(5.0, fired.append, "now")
        sim.run_until(5.0)
        assert sim.now() == 5.0
        assert fired == ["now"]

    def test_satisfies_clock_protocol(self):
        # The tracer (and every Scheduler holder) reads the simulator
        # itself as its clock.
        sim = Simulator()
        TRACER._clock = sim
        try:
            sim.run_for(1.5)
            assert TRACER.now() == 1.5
        finally:
            TRACER._clock = None
