"""Scorecard schema, validation, and canonical byte encoding.

A scorecard is the single artifact a scenario run produces. Two rules make
it useful as a golden-test substrate:

1. **Canonical bytes.** :func:`canonical_bytes` is the only way scorecards
   are compared — it is :func:`repro.obs.export.canonical_json`, the same
   function the chaos and failover scorecards are compared by. Two runs
   agree iff their canonical bytes agree, so "byte-identical" has one
   definition shared by the conformance tests, the goldens, and the CI
   smoke step.

2. **Schema over taste.** :func:`validate_scorecard` checks structure
   (every section present, every field the right type) so a scenario that
   forgets to fill in its SLO section fails loudly in the conformance
   suite instead of producing a quietly hollow golden.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.obs.export import canonical_json

#: section -> field -> allowed types. ``dict`` values are free-form
#: (archetype- or mix-specific) but must be dicts.
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "": {  # top-level scalars
        "scenario": (str,),
        "archetype": (str,),
        "traffic": (str,),
        "seed": (int,),
        "horizon_s": (float, int),
        "ok": (bool,),
    },
    "offered": {
        "arrivals": (int,),
        "bytes": (int,),
        "closed_loop": (bool,),
    },
    "latency": {
        "count": (int,),
        "p50_s": (float, int),
        "p95_s": (float, int),
        "p99_s": (float, int),
        "max_s": (float, int),
    },
    "goodput": {
        "ok": (int,),
        "ok_per_s": (float, int),
    },
    "energy": {
        "consumed": (float, int),
        "capacity": (float, int),
    },
    "slo": {
        "target_s": (float, int),
        "violations": (int,),
        "violation_fraction": (float, int),
        "met": (bool,),
    },
    "drops": {
        "refused": (int,),
        "failed": (int,),
        "pending": (int,),
    },
    "faults": {},           # free-form counts from the chaos mix (or empty)
    "traffic_spec": {},     # the traffic model's spec() dict
    "archetype_detail": {},  # archetype-specific detail() dict
}


#: The one true encoding used for byte-identity comparisons.
canonical_bytes = canonical_json


def validate_scorecard(card: Mapping[str, Any]) -> List[str]:
    """Return a list of schema violations (empty means valid)."""
    problems: List[str] = []
    if not isinstance(card, Mapping):
        return [f"scorecard must be a mapping, got {type(card).__name__}"]

    for section, fields in SCHEMA.items():
        if section == "":
            holder: Any = card
            where = "top level"
        else:
            if section not in card:
                problems.append(f"missing section {section!r}")
                continue
            holder = card[section]
            where = section
            if not isinstance(holder, Mapping):
                problems.append(f"section {section!r} must be a mapping")
                continue
        for field, types in fields.items():
            if field not in holder:
                problems.append(f"{where}: missing field {field!r}")
            elif not isinstance(holder[field], types) or (
                # bool is an int subclass; reject it where ints are expected
                types == (int,) and isinstance(holder[field], bool)
            ):
                problems.append(
                    f"{where}: field {field!r} has type "
                    f"{type(holder[field]).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}"
                )

    known = {s for s in SCHEMA if s}
    known |= set(SCHEMA[""])
    for key in card:
        if key not in known:
            problems.append(f"unknown top-level key {key!r}")

    if not problems:
        lat, off = card["latency"], card["offered"]
        drops = card["drops"]
        settled = card["goodput"]["ok"] + drops["failed"] + drops["refused"]
        if settled + drops["pending"] != off["arrivals"]:
            problems.append(
                "accounting: ok+failed+refused+pending "
                f"({settled + drops['pending']}) != arrivals "
                f"({off['arrivals']})"
            )
        if lat["count"] > off["arrivals"]:
            problems.append("latency count exceeds arrivals")
        if card["slo"]["violations"] < drops["failed"] + drops["pending"]:
            problems.append(
                "slo.violations below failed+pending: a request that "
                "failed or never completed missed its target"
            )
        frac = card["slo"]["violation_fraction"]
        if not 0.0 <= frac <= 1.0:
            problems.append(f"slo.violation_fraction {frac} outside [0,1]")
    return problems
