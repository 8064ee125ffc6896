"""End-of-run invariants of one replica group.

Whoever deploys a group — a chaos campaign, a simtest world, a workload
archetype — judges it the same way once the run has quiesced;
:func:`check_group` asks the questions once, and each harness only decides
how a finding is worded in its own scorecard.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Mapping, Optional, Tuple

from repro.replication.replica import ReplicaNode


def _primaries(members: Mapping[str, ReplicaNode]) -> List[str]:
    return [node for node, r in members.items() if r.role == "primary"]


def check_group(
    members: Mapping[str, ReplicaNode],
    acked: Collection[str] = (),
    expected_total: Optional[int] = None,
    failed_over: bool = False,
) -> List[Tuple[str, str]]:
    """Judge a :func:`~repro.replication.replica.deploy_group` result.

    Returns ``(invariant, detail)`` findings, empty when the group is
    sound:

    * ``primary-count`` — exactly one member is primary;
    * ``primary-term`` — the primary was crashed during the run
      (``failed_over``), so its successor holds a later term than the one
      the group started in;
    * ``replica-diverged`` — every member reached the first member's
      applied index and machine state;
    * ``conservation`` — every replica of a ledger group
      (``expected_total`` given) holds that total;
    * ``acked-not-applied`` — every txid in ``acked`` is in every ledger
      replica's applied set.
    """
    findings = []
    primaries = _primaries(members)
    if len(primaries) != 1:
        findings.append(("primary-count",
                         f"expected one primary, got {primaries}"))
    elif failed_over and members[primaries[0]].term < 2:
        findings.append(("primary-term",
                         f"primary {primaries[0]} never advanced past the "
                         "initial term"))
    (head_node, head), *rest = members.items()
    for node, replica in rest:
        if (replica.applied_index != head.applied_index
                or replica.machine.snapshot() != head.machine.snapshot()):
            findings.append(("replica-diverged",
                             f"{node} diverged from {head_node} "
                             f"({replica.applied_index} != "
                             f"{head.applied_index})"))
    if expected_total is not None:
        acked = set(acked)
        for node, replica in members.items():
            total = sum(replica.machine.balances.values())
            if total != expected_total:
                findings.append(("conservation",
                                 f"conservation broken on {node} "
                                 f"(total={total})"))
            missing = sorted(acked - replica.machine.applied_txids)
            if missing:
                findings.append(("acked-not-applied",
                                 f"{len(missing)} acked txids missing on "
                                 f"{node} (first: {missing[0]})"))
    return findings


def group_summary(members: Mapping[str, ReplicaNode]) -> Dict[str, Any]:
    """The ``primary`` / ``terms`` / ``applied_index`` scorecard rows."""
    primaries = _primaries(members)
    return {
        "primary": primaries[0] if len(primaries) == 1 else None,
        "terms": {node: r.term for node, r in members.items()},
        "applied_index": {
            node: r.applied_index for node, r in members.items()
        },
    }


def close_group(members: Mapping[str, ReplicaNode]) -> None:
    for replica in members.values():
        replica.close()
