"""Tests for repro.util.clock."""

import pytest

from repro.util.clock import Clock, ManualClock


class TestManualClock:
    def test_starts_at_zero(self):
        assert ManualClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert ManualClock(5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ManualClock(-1.0)

    def test_advance_moves_time(self):
        clock = ManualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_accumulates(self):
        clock = ManualClock()
        clock.advance(1.0)
        clock.advance(0.5)
        assert clock.now() == 1.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-0.1)

    def test_set_jumps_forward(self):
        clock = ManualClock()
        clock.set(10.0)
        assert clock.now() == 10.0

    def test_set_rejects_backwards(self):
        clock = ManualClock(5.0)
        with pytest.raises(ValueError):
            clock.set(4.9)

    def test_set_same_time_is_allowed(self):
        clock = ManualClock(5.0)
        assert clock.set(5.0) == 5.0

    def test_satisfies_clock_protocol(self):
        assert isinstance(ManualClock(), Clock)
