"""Workload archetypes x traffic models: the scenario registry.

ROADMAP item 3. Importing this package registers the built-in archetypes
and traffic models; ``python -m repro.workloads list`` shows everything,
``run <archetype>:<traffic> --seed N`` executes one scenario and prints
its scorecard, and the same scenarios are sweep axes
(``python -m repro.experiments sweep workload:<scenario>``), chaos
substrates (``chaos_mix=...``), and simtest worlds
(:mod:`repro.simtest.workloads`).
"""

from repro.workloads.registry import (
    ARCHETYPES,
    TRAFFIC_MODELS,
    Archetype,
    ArchetypeInfo,
    TrafficInfo,
    archetype,
    parse_scenario,
    scenario_names,
    traffic_model,
)
from repro.workloads.scorecard import (
    SCHEMA,
    canonical_bytes,
    validate_scorecard,
)
from repro.workloads.traffic import TrafficModel
from repro.workloads.runner import (
    DEFAULT_HORIZON_S,
    ScenarioRun,
    ScenarioSpec,
    parse_spec,
    run_scenario,
    sweep_rows,
)

# Register the built-ins (traffic models registered by the traffic import).
import repro.workloads.archetypes  # noqa: E402,F401

__all__ = [
    "ARCHETYPES",
    "TRAFFIC_MODELS",
    "Archetype",
    "ArchetypeInfo",
    "DEFAULT_HORIZON_S",
    "SCHEMA",
    "ScenarioRun",
    "ScenarioSpec",
    "TrafficInfo",
    "TrafficModel",
    "archetype",
    "canonical_bytes",
    "parse_scenario",
    "parse_spec",
    "run_scenario",
    "scenario_names",
    "sweep_rows",
    "traffic_model",
    "validate_scorecard",
]
