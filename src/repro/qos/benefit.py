"""Benefit functions: the time dimension of consumer QoS.

Section 3.4: "It should also include the time constraints of the QoS
(benefit function). The application should receive the data immediately or
with some small delay." A benefit function maps delivery delay to the value
the application derives, in [0, 1]. Real-time applications use a hard
:class:`StepBenefit`; e-mail-like applications use a gentle decay.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError


@runtime_checkable
class BenefitFunction(Protocol):
    """Maps a delivery delay (seconds) to application benefit in [0, 1]."""

    def value(self, delay_s: float) -> float:
        ...


class ConstantBenefit:
    """Delay-insensitive (e-mail): full benefit whenever data arrives."""

    __slots__ = ()

    def value(self, delay_s: float) -> float:
        return 1.0


class StepBenefit:
    """Hard real-time: full benefit up to the deadline, zero after."""

    __slots__ = ("deadline_s",)

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        if self.deadline_s <= 0:
            raise ConfigurationError(f"deadline must be positive, got {self.deadline_s!r}")

    def value(self, delay_s: float) -> float:
        return 1.0 if delay_s <= self.deadline_s else 0.0


class LinearDecayBenefit:
    """Soft real-time: full benefit until ``full_until_s``, then a linear
    ramp down to zero at ``zero_at_s``."""

    __slots__ = ("full_until_s", "zero_at_s")

    def __init__(self, full_until_s: float, zero_at_s: float) -> None:
        self.full_until_s = full_until_s
        self.zero_at_s = zero_at_s
        if self.full_until_s < 0:
            raise ConfigurationError(f"full_until must be >= 0, got {self.full_until_s!r}")
        if self.zero_at_s <= self.full_until_s:
            raise ConfigurationError(
                f"zero_at ({self.zero_at_s!r}) must exceed full_until ({self.full_until_s!r})"
            )

    def value(self, delay_s: float) -> float:
        if delay_s <= self.full_until_s:
            return 1.0
        if delay_s >= self.zero_at_s:
            return 0.0
        span = self.zero_at_s - self.full_until_s
        return 1.0 - (delay_s - self.full_until_s) / span


class ExponentialDecayBenefit:
    """Freshness-valuing: benefit halves every ``half_life_s``."""

    __slots__ = ("half_life_s",)

    def __init__(self, half_life_s: float) -> None:
        self.half_life_s = half_life_s
        if self.half_life_s <= 0:
            raise ConfigurationError(f"half life must be positive, got {self.half_life_s!r}")

    def value(self, delay_s: float) -> float:
        if delay_s <= 0:
            return 1.0
        return math.pow(0.5, delay_s / self.half_life_s)


def expected_benefit(fn: BenefitFunction, expected_delay_s: float) -> float:
    """Benefit at the expected delay, clamped into [0, 1] defensively."""
    return min(1.0, max(0.0, fn.value(max(0.0, expected_delay_s))))
