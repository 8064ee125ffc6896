"""E4 — QoS-driven fault tolerance: graceful degradation (Section 3.4).

Claim under test: "All QoS characteristics should provide to the middleware
tools to deal with fault tolerance to provide graceful degradation of the
system in the presence of failures."

A consumer needs a supplier at reliability >= 0.9. Suppliers die one by one
(best first). The harness compares three consumers over the same failure
sequence:

* ``static`` — binds once, never reacts (no middleware help);
* ``rebind`` — rebinds on loss but never relaxes requirements (fails hard
  once nothing meets the floor);
* ``degrading`` — the full degradation manager: rebinds and relaxes in
  steps, keeping *some* service as long as anything is alive.

Reported: delivered quality integrated over time and total outage time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import Rows, check, keyed
from repro.qos.monitor import DegradationManager
from repro.qos.spec import ConsumerQoS, SupplierQoS, rank_matches

#: (supplier key, reliability) — killed in listed order, best first.
SUPPLIERS = [
    ("alpha", 0.99),
    ("bravo", 0.96),
    ("charlie", 0.93),
    ("delta", 0.85),
    ("echo", 0.72),
]

STEP_S = 10.0  # one supplier dies every STEP_S seconds
TOTAL_S = STEP_S * (len(SUPPLIERS) + 1)


def _simulate(policy: str) -> Dict[str, Any]:
    alive: Dict[str, SupplierQoS] = {
        key: SupplierQoS(reliability=reliability) for key, reliability in SUPPLIERS
    }
    consumer = ConsumerQoS(min_reliability=0.9)

    def candidates() -> List[Tuple[str, SupplierQoS, Optional[float]]]:
        return [(key, qos, None) for key, qos in alive.items()]

    manager: Optional[DegradationManager] = None
    current: Optional[str] = None

    def quality() -> float:
        if policy == "degrading":
            assert manager is not None
            return manager.delivered_quality()
        if current is not None and current in alive:
            match = rank_matches([(current, alive[current], None)], consumer)
            return match[0][1].total if match else 0.0
        return 0.0

    def bind() -> None:
        nonlocal current
        ranked = rank_matches(candidates(), consumer)
        current = ranked[0][0] if ranked else None

    if policy == "degrading":
        manager = DegradationManager(consumer, candidates)
        manager.bind()
    else:
        bind()

    delivered = 0.0
    outage = 0.0
    time = 0.0
    kill_order = [key for key, _r in SUPPLIERS]
    while time < TOTAL_S:
        q = quality()
        delivered += q * 1.0
        if q == 0.0:
            outage += 1.0
        time += 1.0
        if time % STEP_S == 0 and kill_order:
            dead = kill_order.pop(0)
            alive.pop(dead, None)
            if policy == "degrading":
                assert manager is not None
                manager.supplier_lost(dead)
            elif policy == "rebind" and dead == current:
                bind()
            # "static" never reacts.
    return {
        "policy": policy,
        "delivered_quality_integral": delivered,
        "mean_quality": delivered / TOTAL_S,
        "outage_s": outage,
        "final_level": manager.level if manager is not None else 0,
    }


def run() -> List[Dict[str, Any]]:
    """The E4 table: one row per fault-tolerance policy."""
    return [_simulate(policy) for policy in ("static", "rebind", "degrading")]


def verdict(rows: Rows) -> str:
    by_policy = keyed(rows, "policy")
    static, rebind, degrading = (by_policy[p] for p in ("static", "rebind", "degrading"))
    check(static["mean_quality"] < rebind["mean_quality"] < degrading["mean_quality"],
          "delivered quality does not order static < rebind < degrading")
    check(degrading["outage_s"] <= rebind["outage_s"] <= static["outage_s"],
          "outage does not order degrading <= rebind <= static")
    check(degrading["final_level"] > 0, "the degradation manager never relaxed")
    return (f"holds ({degrading['mean_quality'] / static['mean_quality']:.1f}x the "
            f"quality of a static binding, "
            f"{degrading['mean_quality'] / rebind['mean_quality']:.1f}x rebind-only)")
