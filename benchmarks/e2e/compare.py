"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of one commit),
B the candidate. One row per workload x end-to-end metric: both medians
with quartiles and n, the ratio B/A, and a verdict that uses only the
bounds in BENCHMARK.json:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is, and the runs resolve it;
* ``unresolved`` the spread of either side is wider than the bound and
                 the two sides' runs overlap, so this pair of files can
                 say neither (choosing-metrics guide, section 6).

Exit status is 1 if any row is ``worse``. ``sim_digest`` is printed per
workload: ``same`` means the two sides simulated identical behaviour.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """End-to-end results of a file, by workload."""
    return {r["workload"]: r for r in json.loads(Path(path).read_text())
            if not r["traced"]}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if better == "higher":  # fold onto lower-is-better
        a, b = [-v for v in a], [-v for v in b]
    med_a = statistics.median(a)
    worsening = (statistics.median(b) - med_a) / abs(med_a)
    if max(spread(a), spread(b)) <= bound:
        return "worse" if worsening > bound else "ok"
    # Too noisy for the bound: only a clean separation decides.
    if max(b) < min(a):
        return "ok"
    if min(b) > max(a) and worsening > bound:
        return "worse"
    return "unresolved"


def describe(values: List[float]) -> str:
    q1, q3 = ((values[0], values[0]) if len(values) < 2 else
              statistics.quantiles(values, n=4)[::2])
    return (f"{statistics.median(values):.5g} "
            f"[{q1:.5g}, {q3:.5g}] n={len(values)}")


def compare(a_path: str, b_path: str) -> Tuple[List[str], bool]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load(a_path), load(b_path)
    lines = [f"base A = {a_path}, candidate B = {b_path}; "
             "median [q1, q3] n; ratio is B/A"]
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in side_a or workload not in side_b:
            continue
        a, b = side_a[workload], side_b[workload]
        same = "same" if a["digest"] == b["digest"] else "DIFFERS"
        lines.append(f"{workload}  (sim_digest {same})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["samples"][name], b["samples"][name]
            result = verdict(va, vb, metric["better"], metric["bound"])
            any_worse = any_worse or result == "worse"
            ratio = statistics.median(vb) / statistics.median(va)
            lines.append(
                f"  {name:<12} A {describe(va):<38} B {describe(vb):<38} "
                f"B/A {ratio:.4f}  bound {metric['bound']:<5} {result}"
            )
    return lines, any_worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, any_worse = compare(*argv)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
