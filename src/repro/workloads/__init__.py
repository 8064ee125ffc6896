"""Workload archetypes x traffic models: the scenario registry.

ROADMAP item 3. Importing this package registers the built-in archetypes
and traffic models; ``python -m repro.workloads list`` shows everything,
``run <archetype>:<traffic> --seed N`` executes one scenario and prints
its scorecard, and the same scenarios are sweep axes
(``python -m repro.experiments sweep workload:<scenario>``), chaos
substrates (``chaos_mix=...``), and simtest worlds
(:mod:`repro.simtest.workloads`).
"""

# Importing these registers the built-in traffic models and archetypes.
import repro.workloads.traffic  # noqa: F401
import repro.workloads.archetypes  # noqa: F401
from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "ARCHETYPES": "repro.workloads.registry",
    "TRAFFIC_MODELS": "repro.workloads.registry",
    "Archetype": "repro.workloads.registry",
    "ArchetypeInfo": "repro.workloads.registry",
    "TrafficInfo": "repro.workloads.registry",
    "archetype": "repro.workloads.registry",
    "parse_scenario": "repro.workloads.registry",
    "scenario_names": "repro.workloads.registry",
    "traffic_model": "repro.workloads.registry",
    "SCHEMA": "repro.workloads.scorecard",
    "canonical_bytes": "repro.workloads.scorecard",
    "validate_scorecard": "repro.workloads.scorecard",
    "TrafficModel": "repro.workloads.traffic",
    "DEFAULT_HORIZON_S": "repro.workloads.runner",
    "ScenarioRun": "repro.workloads.runner",
    "ScenarioSpec": "repro.workloads.runner",
    "parse_spec": "repro.workloads.runner",
    "run_scenario": "repro.workloads.runner",
    "sweep_rows": "repro.workloads.runner",
})
