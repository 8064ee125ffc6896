"""Trace minimization: shrink a diverging scenario to a minimal repro.

Delta-debugging over the scenario's step list: greedy chunked deletion
(halving chunk sizes, ddmin-style) interleaved with adjacent-pair
reorderings (swapping two steps' times), repeated to a fixpoint or until
the replay budget runs out. A candidate counts as still-failing when
replaying it reproduces the *same* ``(oracle, kind)`` divergence signature
— deterministic replay is what makes the greedy loop sound.

The result is written as a repro file: JSON holding the scenario, the
plant (if any), and the expected signature. ``python -m repro.simtest
repro <file>`` replays it and reports whether the divergence still
reproduces.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.simtest.scenario import Scenario, Step
from repro.simtest.world import execute_scenario

REPRO_FORMAT = "repro.simtest/1"


class ShrinkResult:
    __slots__ = ("scenario", "signature", "replays", "initial_steps")

    def __init__(self, scenario: Scenario, signature: Tuple[str, str],
                 replays: int, initial_steps: int) -> None:
        self.scenario = scenario
        self.signature = signature
        self.replays = replays
        self.initial_steps = initial_steps

    @property
    def steps(self) -> int:
        return len(self.scenario.steps)


def _reproduces(scenario: Scenario, plant: Optional[str],
                signature: Tuple[str, str]) -> bool:
    return signature in execute_scenario(scenario, plant).signatures()


def _sorted_steps(steps: List[Step]) -> List[Step]:
    return sorted(steps, key=lambda s: s.at)


def shrink(
    scenario: Scenario,
    signature: Tuple[str, str],
    plant: Optional[str] = None,
    max_replays: int = 400,
) -> ShrinkResult:
    """Minimize ``scenario`` while it keeps reproducing ``signature``."""
    replays = 0
    current = list(scenario.steps)

    def attempt(steps: List[Step]) -> bool:
        nonlocal replays, current
        if replays >= max_replays:
            return False
        replays += 1
        candidate = scenario.with_steps(_sorted_steps(steps))
        if _reproduces(candidate, plant, signature):
            current = list(candidate.steps)
            return True
        return False

    progress = True
    while progress and replays < max_replays:
        progress = False
        # Chunked deletion, halving chunk sizes (ddmin).
        chunk = max(len(current) // 2, 1)
        while chunk >= 1:
            index = 0
            while index < len(current):
                if attempt(current[:index] + current[index + chunk:]):
                    progress = True
                else:
                    index += chunk
                if replays >= max_replays:
                    break
            chunk //= 2
        # Adjacent reorder: swap two steps' times, keep the reorder only if
        # it unlocks a deletion the straight pass could not make.
        index = 0
        while index + 1 < len(current) and replays < max_replays:
            first, second = current[index], current[index + 1]
            swapped = (
                current[:index]
                + [Step(second.at, first.op, first.args),
                   Step(first.at, second.op, second.args)]
                + current[index + 2:]
            )
            before = list(current)
            if attempt(swapped):
                if attempt(current[:index] + current[index + 1:]) or attempt(
                    current[:index + 1] + current[index + 2:]
                ):
                    progress = True
                else:
                    current = before  # reorder alone buys nothing: revert
            index += 1
    return ShrinkResult(
        scenario=scenario.with_steps(current),
        signature=signature,
        replays=replays,
        initial_steps=len(scenario.steps),
    )


# ------------------------------------------------------------- repro files


def write_repro(path: str, scenario: Scenario, signature: Tuple[str, str],
                plant: Optional[str] = None,
                detail: Optional[str] = None) -> None:
    payload: Dict[str, Any] = {
        "format": REPRO_FORMAT,
        "plant": plant,
        "signature": list(signature),
        "detail": detail,
        "scenario": scenario.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_repro(path: str) -> Tuple[Scenario, Tuple[str, str], Optional[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"{path}: not a {REPRO_FORMAT} repro file "
            f"(format={payload.get('format')!r})"
        )
    signature = tuple(payload["signature"])
    if len(signature) != 2:
        raise ValueError(f"{path}: malformed signature {signature!r}")
    return (
        Scenario.from_dict(payload["scenario"]),
        (signature[0], signature[1]),
        payload.get("plant"),
    )


def replay_repro(path: str) -> Tuple[bool, List[Tuple[str, str]]]:
    """Replay a repro file; returns (reproduced, observed signatures)."""
    scenario, signature, plant = load_repro(path)
    result = execute_scenario(scenario, plant)
    observed = result.signatures()
    return signature in observed, observed
