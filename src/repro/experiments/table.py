"""The one table of experiments, and the report generated from it.

Every consumer reads :data:`EXPERIMENTS`: the CLI lists and runs its rows,
the sweep runner resolves names against it, and ``EXPERIMENTS.md`` is
rewritten from it (:func:`render`) — so adding an experiment is one row
here plus the ``run`` and ``verdict`` it names, and a ``<!-- table:ID -->``
section in the document.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

from repro.experiments import (
    exp_adaptation,
    exp_chaos,
    exp_degradation,
    exp_discovery,
    exp_figure1,
    exp_handoff,
    exp_interop,
    exp_milan,
    exp_netindep,
    exp_recovery,
    exp_routing,
    exp_scheduling,
    exp_simtest,
    exp_spatial,
    exp_transactions,
    exp_workloads,
)
from repro.experiments.common import Experiment, Rows, format_table

#: In document order. A row's CLI word is the module of its ``run``
#: (``exp_routing`` -> ``routing``); its id addresses it alone.
EXPERIMENTS: List[Experiment] = [
    Experiment("F1", "§2", "Figure 1: middleware references per year, 1989-2001",
               exp_figure1.run, exp_figure1.verdict),
    Experiment("F1b", "§2", "Figure 1's textual checkpoints, paper vs measured",
               exp_figure1.run_claims, exp_figure1.verdict_claims),
    Experiment("E2", "§3.3", "the discovery mechanism to choose depends on "
               "network size, tolerable overhead and churn",
               exp_discovery.run, exp_discovery.verdict),
    Experiment("E2b", "§3.3", "mirroring the registry increases directory scalability",
               exp_discovery.run_mirrored, exp_discovery.verdict_mirrored),
    Experiment("E3", "§3.4", "spatial QoS is needed for the nearest best-matched printer",
               exp_spatial.run, exp_spatial.verdict),
    Experiment("E4", "§3.4", "QoS machinery degrades gracefully as suppliers fail",
               exp_degradation.run, exp_degradation.verdict),
    Experiment("E5", "§3.5, §4", "energy-aware routing inside the middleware "
               "extends network lifetime",
               exp_routing.run, exp_routing.verdict),
    Experiment("E5b", "§3.5", "routing without routing tables (geographic, data-centric)",
               exp_routing.run_tablefree, exp_routing.verdict_tablefree),
    Experiment("E6", "§3.6", "interaction paradigms differ in network burden "
               "and asynchrony",
               exp_transactions.run, exp_transactions.verdict),
    Experiment("E6b", "§3.10", "a multimedia stream's playout delay buys continuity",
               exp_transactions.run_streaming, exp_transactions.verdict_streaming),
    Experiment("E7", "§3.7", "the scheduling policy decides who misses "
               "deadlines under load",
               exp_scheduling.run, exp_scheduling.verdict),
    Experiment("E7b", "§3.7", "a departing supplier's transaction is "
               "completed or transferred",
               exp_handoff.run, exp_handoff.verdict),
    Experiment("E8", "§3.8", "a simple log-based scheme recovers critical transactions",
               exp_recovery.run, exp_recovery.verdict, wall=("recovery_wall_ms",)),
    Experiment("E9", "§3.9", "markup interoperability has a real wire cost",
               exp_interop.run, exp_interop.verdict, wall=("cpu_ms_total",)),
    Experiment("E9b", "§3.9", "the paradigm bridge carries RPC callers to "
               "pub/sub consumers",
               exp_interop.run_bridge, exp_interop.verdict_bridge),
    Experiment("E10", "§4", "MiLAN's feasible-set selection extends "
               "application lifetime",
               exp_milan.run, exp_milan.verdict),
    Experiment("E10b", "§4", "the feasible-set enumeration cap does not change "
               "the smallest set found",
               exp_milan.run_ablation, exp_milan.verdict_ablation,
               wall=("enumeration_ms",)),
    Experiment("E11", "§4", "applications adapt to sensors joining and leaving",
               exp_adaptation.run, exp_adaptation.verdict),
    Experiment("E12", "§3.2", "the same application runs over every network stack",
               exp_netindep.run, exp_netindep.verdict),
    Experiment("E12b", "§3.2", "where the stack retransmits trades bytes for latency",
               exp_netindep.run_retransmit_ablation,
               exp_netindep.verdict_retransmit_ablation),
    Experiment("E13", "§3.4, §3.8", "failure handling survives composed fault storms",
               exp_chaos.run, exp_chaos.verdict),
    Experiment("E14", "harness", "simulation testing finds, shrinks and "
               "replays planted defects",
               exp_simtest.run, exp_simtest.verdict),
    Experiment("E15", "§3, §4", "the whole stack serves every registered "
               "workload scenario",
               exp_workloads.run, exp_workloads.verdict),
]


def find(word: str) -> List[Experiment]:
    """The rows a CLI word stands for: one by id, or every row of a name."""
    return [row for row in EXPERIMENTS if word in (row.id, row.name)]


# ------------------------------------------------------------------ report

#: The document ``report`` rewrites: the checkout's, four levels up.
REPORT_PATH = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

Measured = Dict[str, Tuple[Rows, str]]


def measure() -> Measured:
    """Run every row once at its defaults (seed 0): id -> (rows, verdict).
    A verdict that raises propagates: a report is all or nothing."""
    measured: Measured = {}
    for row in EXPERIMENTS:
        rows = row.run()
        measured[row.id] = (rows, row.judge(rows))
    return measured


def render(text: str, measured: Measured) -> str:
    """``text`` (the document) with every generated part rebuilt from
    ``measured``: each ``<!-- table:ID -->`` block is that row's whole
    table minus its wall-clock columns plus the computed verdict, the
    ``<!-- summary -->`` block one line per row. Hand-written prose around
    the blocks is left alone. Raises ``ValueError`` when blocks and rows do
    not pair up one to one, in the table's order."""
    blocks = {}
    for row in EXPERIMENTS:
        rows, verdict = measured[row.id]
        kept = [{column: value for column, value in line.items()
                 if column not in row.wall} for line in rows]
        table = "\n".join(line.rstrip() for line in format_table(kept).splitlines())
        blocks[f"table:{row.id}"] = f"```\n{table}\n```\n\n**Verdict:** {verdict}"
    blocks["summary"] = "\n".join(
        ["| Id | Paper | Claim | Verdict |", "|---|---|---|---|"]
        + [f"| {row.id} | {row.section} | {row.claim} | {measured[row.id][1]} |"
           for row in EXPERIMENTS])
    pattern = re.compile(r"<!-- (\S+) -->\n.*?\n<!-- /\1 -->", re.DOTALL)
    found = pattern.findall(text)
    if found != list(blocks):
        raise ValueError(f"the document's generated blocks are {found}, the "
                         f"table's rows {[row.id for row in EXPERIMENTS]}")
    return pattern.sub(
        lambda match: f"<!-- {match[1]} -->\n{blocks[match[1]]}\n<!-- /{match[1]} -->",
        text)


def report() -> bool:
    """Rewrite :data:`REPORT_PATH` in place; whether anything changed."""
    text = REPORT_PATH.read_text(encoding="utf-8")
    fresh = render(text, measure())
    REPORT_PATH.write_text(fresh, encoding="utf-8")
    return fresh != text
