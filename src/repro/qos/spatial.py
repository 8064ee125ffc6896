"""Spatial QoS: the space dimension of consumer QoS.

Section 3.4's canonical example: "a user would like to print a file on the
nearest and 'best matched printer'. Some matching algorithms only consider
logical location, which is not compatible with spatial QoS." This module
scores physical proximity; experiment E3 compares spatial-aware matching
against logical-only matching.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError


def spatial_score(distance_m: float, scale_m: float) -> float:
    """Proximity score in (0, 1]: exp(-distance/scale).

    ``scale_m`` is the distance at which the score drops to 1/e — pick it
    near "how far is still convenient" for the application (a printer down
    the hall vs. across campus).
    """
    if scale_m <= 0:
        raise ConfigurationError(f"spatial scale must be positive, got {scale_m!r}")
    return math.exp(-max(0.0, distance_m) / scale_m)


class SpatialPreference:
    """A consumer's spatial QoS term.

    Attributes:
        scale_m: convenience scale for :func:`spatial_score`.
        max_distance_m: hard cutoff; suppliers farther than this are
            infeasible regardless of other merits (None = no cutoff).
        weight: relative weight of proximity in the combined match score.
    """

    __slots__ = ("scale_m", "max_distance_m", "weight")

    def __init__(self, scale_m: float = 50.0,
                 max_distance_m: Optional[float] = None,
                 weight: float = 1.0) -> None:
        self.scale_m = scale_m
        self.max_distance_m = max_distance_m
        self.weight = weight
        if self.scale_m <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale_m!r}")
        if self.max_distance_m is not None and self.max_distance_m <= 0:
            raise ConfigurationError(
                f"max distance must be positive, got {self.max_distance_m!r}"
            )
        if self.weight < 0:
            raise ConfigurationError(f"weight must be >= 0, got {self.weight!r}")

    def feasible(self, distance_m: float) -> bool:
        return self.max_distance_m is None or distance_m <= self.max_distance_m

    def score(self, distance_m: float) -> float:
        return spatial_score(distance_m, self.scale_m)
