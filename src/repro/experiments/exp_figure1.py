"""F1 — Figure 1: middleware references per year (Section 2).

Paper artifact: a bar chart of IEEE Xplore hits for "middleware" per year,
1989-2001, with the textual claims: first article 1993, 7 articles in 1994,
~170/year plateau, and positive correlation with the networks and
distributed-systems series.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bibliometrics.corpus import YEARS
from repro.bibliometrics.figure1 import MIDDLEWARE_TARGET_SERIES, reproduce_figure1
from repro.experiments.common import Rows, check


def run(seed: int = 0, noise: float = 0.05) -> List[Dict[str, Any]]:
    """One row per year: target (digitized figure) vs reproduced count."""
    result = reproduce_figure1(seed=seed, noise=noise)
    rows: List[Dict[str, Any]] = []
    for year in YEARS:
        rows.append(
            {
                "year": year,
                "paper_figure": MIDDLEWARE_TARGET_SERIES.get(year, 0),
                "reproduced": result.series["middleware"].get(year, 0),
            }
        )
    return rows


def verdict(rows: Rows) -> str:
    reproduced = {row["year"]: row["reproduced"] for row in rows}
    check(list(reproduced) == list(YEARS), f"years are {list(reproduced)}")
    check(reproduced[1992] == 0 and reproduced[1993] >= 1,
          f"first article not in 1993: {reproduced[1992]} in 1992, "
          f"{reproduced[1993]} in 1993")
    check(reproduced[2001] > 100 * reproduced[1993],
          f"2001 ({reproduced[2001]}) is not two orders above 1993 "
          f"({reproduced[1993]})")
    worst = max(abs(row["reproduced"] - row["paper_figure"]) / row["paper_figure"]
                for row in rows if row["paper_figure"] >= 25)
    check(worst < 0.1, f"a year from 1995 on is {worst:.1%} off the figure")
    return f"reproduced (1995-2001 each within {worst:.1%} of the figure)"


def run_claims(seed: int = 0) -> List[Dict[str, Any]]:
    """The figure's headline claims, paper vs measured."""
    result = reproduce_figure1(seed=seed)
    return [
        {"claim": "first middleware article", "paper": "1993",
         "measured": str(result.first_middleware_year)},
        {"claim": "articles in 1994", "paper": "7",
         "measured": str(result.middleware_1994)},
        {"claim": "plateau 1999-2001", "paper": "~170/yr",
         "measured": f"{result.plateau_mean:.0f}/yr"},
        {"claim": "corr(mw, network)", "paper": "positive",
         "measured": f"{result.correlation_with_network:+.3f}"},
        {"claim": "corr(mw, dist-sys)", "paper": "positive",
         "measured": f"{result.correlation_with_distributed:+.3f}"},
    ]


def verdict_claims(rows: Rows) -> str:
    measured = {row["claim"]: row["measured"] for row in rows}
    check(measured["first middleware article"] == "1993",
          f"first middleware article in {measured['first middleware article']}")
    network = float(measured["corr(mw, network)"])
    distributed = float(measured["corr(mw, dist-sys)"])
    check(network > 0.9, f"corr(mw, network) is only {network:+.3f}")
    check(distributed > 0.9, f"corr(mw, dist-sys) is only {distributed:+.3f}")
    return (f"reproduced (first article 1993, {measured['articles in 1994']} in "
            f"1994, {measured['plateau 1999-2001']} plateau, correlations "
            f"{network:+.3f} / {distributed:+.3f})")
