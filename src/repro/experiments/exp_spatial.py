"""E3 — spatial QoS vs logical-only matching (Section 3.4).

Claim under test: "a user would like to print a file on the nearest and
'best matched printer.' Some matching algorithms only consider logical
location, which is not compatible with spatial QoS."

Many users at random positions query for a color printer; the harness
compares the matcher with and without spatial QoS on (a) the distance the
user must walk to the chosen printer and (b) whether requirements were
still met.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import AttributeConstraint, Matcher, Query
from repro.experiments.common import Rows, check, keyed
from repro.qos.spatial import SpatialPreference
from repro.qos.spec import ConsumerQoS, SupplierQoS
from repro.util.rng import split_rng

FLOOR = (120.0, 80.0)  # office floor, meters

PRINTERS = [
    # (id, x, y, color, ppm, reliability)
    ("p-lobby", 10.0, 10.0, "no", 40, 0.99),
    ("p-east-color", 100.0, 15.0, "yes", 25, 0.98),
    ("p-west-color", 15.0, 65.0, "yes", 22, 0.97),
    ("p-center-color", 60.0, 40.0, "yes", 18, 0.96),
    ("p-annex-color", 115.0, 75.0, "yes", 45, 0.99),
    ("p-flaky-color", 55.0, 35.0, "yes", 30, 0.55),
]


def _descriptions() -> List[ServiceDescription]:
    return [
        ServiceDescription(
            printer_id, "printer", f"{printer_id}:svc",
            attributes={"color": color, "ppm": str(ppm)},
            qos=SupplierQoS(reliability=reliability),
            position=(x, y),
        )
        for printer_id, x, y, color, ppm, reliability in PRINTERS
    ]


def run(n_users: int = 200, seed: int = 0) -> List[Dict[str, Any]]:
    """One row per matching mode, aggregated over users."""
    rng = split_rng(seed, "spatial-users")
    users = [(rng.uniform(0, FLOOR[0]), rng.uniform(0, FLOOR[1]))
             for _ in range(n_users)]
    descriptions = _descriptions()
    matcher = Matcher()
    constraints = (
        AttributeConstraint("color", "=", "yes"),
        AttributeConstraint("ppm", ">=", "15"),
    )

    modes = {
        "logical-only": lambda position: Query(
            "printer", constraints, consumer=ConsumerQoS(min_reliability=0.9),
        ),
        "spatial": lambda position: Query(
            "printer", constraints,
            consumer=ConsumerQoS(
                min_reliability=0.9,
                spatial=SpatialPreference(scale_m=40.0, weight=2.0),
            ),
            consumer_position=position,
        ),
        "spatial+cutoff-60m": lambda position: Query(
            "printer", constraints,
            consumer=ConsumerQoS(
                min_reliability=0.9,
                spatial=SpatialPreference(scale_m=40.0, weight=2.0,
                                          max_distance_m=60.0),
            ),
            consumer_position=position,
        ),
    }

    rows: List[Dict[str, Any]] = []
    for mode, make_query in modes.items():
        distances: List[float] = []
        satisfied = 0
        unmatched = 0
        for position in users:
            matches = matcher.match(descriptions, make_query(position))
            if not matches:
                unmatched += 1
                continue
            chosen = matches[0].description
            assert chosen.position is not None
            distance = math.hypot(position[0] - chosen.position[0],
                                  position[1] - chosen.position[1])
            distances.append(distance)
            if chosen.qos.reliability >= 0.9:
                satisfied += 1
        matched = len(distances)
        rows.append(
            {
                "mode": mode,
                "users": n_users,
                "matched": matched,
                "mean_walk_m": sum(distances) / matched if matched else 0.0,
                "p95_walk_m": (
                    sorted(distances)[int(0.95 * matched) - 1] if matched else 0.0
                ),
                "requirement_met": satisfied / matched if matched else 0.0,
                "unmatched": unmatched,
            }
        )
    return rows


def verdict(rows: Rows) -> str:
    by_mode = keyed(rows, "mode")
    logical, spatial = by_mode["logical-only"], by_mode["spatial"]
    check(spatial["mean_walk_m"] < 0.5 * logical["mean_walk_m"],
          f"spatial matching walks {spatial['mean_walk_m']:.1f} m, not half of "
          f"logical-only's {logical['mean_walk_m']:.1f} m")
    check(spatial["requirement_met"] >= logical["requirement_met"],
          "spatial matching met fewer capability requirements")
    cutoff = by_mode["spatial+cutoff-60m"]["p95_walk_m"]
    check(cutoff <= 60.0, f"the 60 m cutoff sent users {cutoff:.1f} m")
    return (f"holds ({logical['mean_walk_m'] / spatial['mean_walk_m']:.1f}x shorter "
            f"mean walk, requirements met {spatial['requirement_met']:.0%})")
