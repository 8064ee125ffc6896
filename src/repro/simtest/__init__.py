"""Deterministic simulation testing in the FoundationDB style.

Every run is a pure function of a :class:`~repro.simtest.scenario.Scenario`
(itself a pure function of an integer seed): the workload, the fault
schedule, and even the event-loop tie-breaking are all derived from seeds,
so any execution — including one found by random exploration — can be
replayed bit-for-bit from a few integers.

The pieces:

* :mod:`repro.simtest.scenario` — the serializable trace of workload and
  fault steps a run executes.
* :mod:`repro.simtest.world` — a small fixed deployment (4 nodes over an
  ideal radio, so the only nondeterminism is injected) that executes a
  scenario with every oracle attached.
* :mod:`repro.simtest.oracles` — abstract reference models (reliable
  delivery, discovery convergence, ledger atomicity, MiLAN feasible sets)
  stepped in lockstep with the implementation.
* :mod:`repro.simtest.linearizability` — a Wing–Gong checker run over the
  recorded shared-object, tuple-space, and ledger histories.
* :mod:`repro.simtest.explorer` — drives many short randomized executions,
  perturbing schedules and injecting faults, until a divergence appears or
  the budget runs out.
* :mod:`repro.simtest.shrinker` — minimizes a diverging scenario by greedy
  deletion/reordering and emits a replayable repro file.
* :mod:`repro.simtest.defects` — one table of deliberate defects in
  deployed code, each with the oracle or property that must catch it, and
  the routine that applies one for a block.
* :mod:`repro.simtest.replicated` — the replicated primary-kill world
  (``simtest failover``).
* :mod:`repro.simtest.workloads` — Wing–Gong and end-of-run checks over a
  workload scenario's recorded history (``simtest scenario``).

CLI: ``python -m repro.simtest run --budget 500 --seed 0`` explores;
``python -m repro.simtest repro <file>`` replays a minimized repro.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "ExplorationReport": "repro.simtest.explorer",
    "explore": "repro.simtest.explorer",
    "Op": "repro.simtest.linearizability",
    "check_linearizable": "repro.simtest.linearizability",
    "Divergence": "repro.simtest.oracles",
    "Scenario": "repro.simtest.scenario",
    "Step": "repro.simtest.scenario",
    "generate_scenario": "repro.simtest.scenario",
    "load_repro": "repro.simtest.shrinker",
    "shrink": "repro.simtest.shrinker",
    "write_repro": "repro.simtest.shrinker",
    "RunResult": "repro.simtest.world",
    "execute_scenario": "repro.simtest.world",
})
