"""Simtest oracles over workload scenarios.

Any registered scenario can run as a simtest world: the run records the
archetype's operation history (tuple-space fan-out, replicated-ledger
traffic), and :func:`check_scenario` replays each object's history through
the Wing-Gong checker plus the archetype's own end-of-run consistency
checks. Linearizability is compositional, so each object — each message
tuple, the ledger — is checked separately.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ConfigurationError
from repro.simtest.oracles import replay
from repro.workloads.runner import ScenarioRun, parse_spec


def check_scenario(name: str, seed: int = 0,
                   **overrides: Any) -> Dict[str, Any]:
    """Run ``name`` with history recording and check every oracle.

    Returns ``{"scorecard", "objects", "operations", "violations"}`` where
    ``violations`` collects linearizability counterexamples (an object the
    checker could not decide within its budget counts as one) and the
    archetype's consistency violations (empty means the run is clean).
    Scenarios whose archetype records no history are rejected — a vacuous
    oracle pass is worse than an error — and so are object kinds no
    sequential model exists for.
    """
    run = ScenarioRun(parse_spec(name, seed, record_history=True,
                                 **overrides))
    archetype = run.archetype
    scorecard = run.run()
    history = archetype.history()
    if not history:
        raise ConfigurationError(
            f"scenario {name!r} recorded no history; it cannot run as a "
            "simtest world"
        )

    violations: List[str] = list(
        scorecard["archetype_detail"]["consistency_violations"]
    )
    verdicts = replay(history, archetype.initial_accounts)
    violations += [
        f"{obj}: {problem}" for obj, problem, _aborted in verdicts
        if problem is not None
    ]

    return {
        "scorecard": scorecard,
        "objects": len(verdicts),
        "operations": len(history),
        "violations": violations,
    }
