"""QoS specifications and the three-way match.

Section 3.4 enumerates what each party brings to a match:

* the **supplier**: required connections, security access, power
  constraints, availability;
* the **consumer**: service/attribute needs over time and space;
* the **network**: "mainly related to bandwidth issues, but network density
  and traffic patterns can be considered as well" — no deployment supplies
  network conditions at match time, so none enter the score.

:func:`score_match` is the single place these meet. Hard constraints
(security, reliability floor, latency ceiling, spatial cutoff) make a match
infeasible; soft terms combine into a weighted score that discovery uses to
rank feasible suppliers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.qos.spatial import SpatialPreference


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


#: Relative weight of each soft term in a match's total.
SOFT_WEIGHTS: Dict[str, float] = {
    "reliability": 1.0,
    "availability": 0.5,
    "benefit": 1.0,
    "spatial": 1.0,
}


class SupplierQoS:
    """What a service supplier promises and requires.

    Attributes:
        reliability: probability a request yields correct data, in [0, 1].
        availability: long-run fraction of time the service is up.
        expected_latency_s: typical response latency the supplier can meet.
        bandwidth_bps: bandwidth one active consumer costs the network.
        battery_powered: True for energy-constrained suppliers.
        battery_fraction: remaining energy fraction (None when mains-powered).
        requires_password: consumer must present a credential.
        encrypted: transport encryption is applied (adds latency, satisfies
            consumers that demand encryption).
        properties: free-form extra attributes, matched by discovery.
    """

    __slots__ = ("reliability", "availability", "expected_latency_s",
                 "bandwidth_bps", "battery_powered", "battery_fraction",
                 "requires_password", "encrypted", "properties")

    def __init__(self, reliability: float = 1.0, availability: float = 1.0,
                 expected_latency_s: float = 0.01, bandwidth_bps: float = 0.0,
                 battery_powered: bool = False,
                 battery_fraction: Optional[float] = None,
                 requires_password: bool = False, encrypted: bool = False,
                 properties: Optional[Dict[str, str]] = None) -> None:
        self.reliability = reliability
        self.availability = availability
        self.expected_latency_s = expected_latency_s
        self.bandwidth_bps = bandwidth_bps
        self.battery_powered = battery_powered
        self.battery_fraction = battery_fraction
        self.requires_password = requires_password
        self.encrypted = encrypted
        self.properties = {} if properties is None else properties
        _check_unit("reliability", self.reliability)
        _check_unit("availability", self.availability)
        if self.expected_latency_s < 0:
            raise ConfigurationError(
                f"latency must be >= 0, got {self.expected_latency_s!r}"
            )
        if self.battery_fraction is not None:
            _check_unit("battery fraction", self.battery_fraction)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.reliability, self.availability, self.expected_latency_s,
             self.bandwidth_bps, self.battery_powered, self.battery_fraction,
             self.requires_password, self.encrypted, self.properties)
            == (other.reliability, other.availability, other.expected_latency_s,
                other.bandwidth_bps, other.battery_powered,
                other.battery_fraction, other.requires_password,
                other.encrypted, other.properties)
        )


class ConsumerQoS:
    """What a service consumer needs.

    Attributes:
        min_reliability / min_availability: hard floors.
        max_latency_s: hard ceiling on expected latency (None = don't care).
        spatial: spatial preference (None = logical matching only —
            exactly the deficiency experiment E3 demonstrates).
        require_encryption: hard security constraint.
        password: credential presented to password-protected suppliers.
    """

    __slots__ = ("min_reliability", "min_availability", "max_latency_s",
                 "spatial", "require_encryption", "password")

    def __init__(self, min_reliability: float = 0.0,
                 min_availability: float = 0.0,
                 max_latency_s: Optional[float] = None,
                 spatial: Optional[SpatialPreference] = None,
                 require_encryption: bool = False,
                 password: Optional[str] = None) -> None:
        self.min_reliability = min_reliability
        self.min_availability = min_availability
        self.max_latency_s = max_latency_s
        self.spatial = spatial
        self.require_encryption = require_encryption
        self.password = password
        _check_unit("min reliability", self.min_reliability)
        _check_unit("min availability", self.min_availability)
        if self.max_latency_s is not None and self.max_latency_s <= 0:
            raise ConfigurationError(
                f"max latency must be positive, got {self.max_latency_s!r}"
            )


class MatchScore:
    """Result of a feasible match: the weighted mean of its soft terms."""

    __slots__ = ("total",)

    def __init__(self, total: float) -> None:
        self.total = total


def score_match(
    supplier: SupplierQoS,
    consumer: ConsumerQoS,
    distance_m: Optional[float] = None,
) -> Optional[MatchScore]:
    """Score a (supplier, consumer) pair.

    Returns None when any hard constraint fails; otherwise a
    :class:`MatchScore` whose total is the weighted mean of the soft terms,
    in [0, 1]. ``distance_m`` is required for consumers with a spatial
    preference — passing None there is the "logical location only" mode.
    """
    # --- hard constraints ---------------------------------------------------
    if supplier.reliability < consumer.min_reliability:
        return None
    if supplier.availability < consumer.min_availability:
        return None
    if consumer.require_encryption and not supplier.encrypted:
        return None
    if supplier.requires_password and consumer.password is None:
        return None
    if (consumer.max_latency_s is not None
            and supplier.expected_latency_s > consumer.max_latency_s):
        return None
    if (
        consumer.spatial is not None
        and distance_m is not None
        and not consumer.spatial.feasible(distance_m)
    ):
        return None

    # --- soft terms ----------------------------------------------------------
    terms: Dict[str, float] = {
        "reliability": supplier.reliability,
        "availability": supplier.availability,
        # §3.4's time constraint, delay-insensitive: full benefit whenever
        # the data arrives, so a late supplier loses only to the latency cap.
        "benefit": 1.0,
    }
    if consumer.spatial is not None and distance_m is not None:
        terms["spatial"] = consumer.spatial.score(distance_m)

    weighted_sum = 0.0
    weight_total = 0.0
    for name, value in terms.items():
        weight = SOFT_WEIGHTS[name]
        if name == "spatial" and consumer.spatial is not None:
            weight *= consumer.spatial.weight
        weighted_sum += weight * value
        weight_total += weight
    total = weighted_sum / weight_total if weight_total > 0 else 0.0
    return MatchScore(total=total)


def rank_matches(
    candidates: List[tuple],
    consumer: ConsumerQoS,
) -> List[tuple]:
    """Rank ``(key, SupplierQoS, distance_m)`` triples by match score, best first.

    Infeasible candidates are dropped. Returns ``(key, MatchScore)`` pairs.
    Ties break by key for determinism.
    """
    scored = []
    for key, supplier, distance_m in candidates:
        match = score_match(supplier, consumer, distance_m)
        if match is not None:
            scored.append((key, match))
    scored.sort(key=lambda pair: (-pair[1].total, str(pair[0])))
    return scored
