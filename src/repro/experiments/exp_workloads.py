"""E15 — the registered workload scenarios, one row each.

Claim under test: the whole stack serves realistic traffic. Every
archetype x traffic-model scenario of :mod:`repro.workloads` runs once
through its full deployment; a row is that run's scorecard flattened
(:func:`repro.workloads.sweep_rows`). The scorecards themselves are pinned
byte for byte by ``tests/golden/``; this table is their summary and the
all-scenarios axis of ``python -m repro.experiments sweep workloads``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro import workloads
from repro.experiments.common import Rows, check


def run(seed: int = 0) -> List[Dict[str, Any]]:
    return [workloads.sweep_rows(name, seed)
            for name in workloads.scenario_names()]


def verdict(rows: Rows) -> str:
    """Every scorecard invariant holds at every seed; the latency SLO does
    not (``patient_fleet:diurnal`` misses it at seed 4), so it is counted."""
    for row in rows:
        check(row["consistent"] is True,
              f"{row['scenario']} violated an invariant of its scorecard")
    within_slo = sum(1 for row in rows if row["slo_met"])
    refusing = sum(1 for row in rows if row["refused"])
    return (f"holds ({len(rows)}/{len(rows)} scenarios keep every scorecard "
            f"invariant, {within_slo} meet their latency SLO, {refusing} shed "
            f"load by refusing)")
