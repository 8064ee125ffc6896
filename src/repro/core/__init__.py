"""MiLAN — Middleware Linking Applications and Networks (Section 4).

The paper's own system: applications "adapt to changing sets of available
components" and "further constrain the active components for
application-performance reasons"; MiLAN's job is "to identify these
feasible sets and to determine which set optimizes the tradeoff between
application performance and network cost (e.g., energy dissipation)",
then "configure the network". Its key feature is "the separation of the
policy for managing the network, which is defined by the application, from
the mechanisms for implementing the policy".

The model follows the MiLAN technical report (TR-795) lineage:

* the application declares **states** and, per state, the **reliability
  each variable of interest requires** (:mod:`repro.core.state`,
  :mod:`repro.core.requirements`);
* each **sensor** supplies some variables with some reliability at some
  energy cost (:mod:`repro.core.sensors`);
* a sensor set satisfies a variable when the combined reliability
  ``1 - prod(1 - r_i)`` meets the requirement; the **application feasible
  sets** are the minimal satisfying sets (:mod:`repro.core.feasibility`);
* **network plugins** intersect these with what the network can support —
  Bluetooth piconet size, 802.11 bandwidth, reachability
  (:mod:`repro.core.plugins`);
* the **selector** picks the network-feasible set optimizing the
  performance/lifetime tradeoff (:mod:`repro.core.selection`);
* the **configurator** turns the choice into node roles
  (:mod:`repro.core.configurator`), and :mod:`repro.core.milan` is the
  runtime that re-runs the whole pipeline as states, sensors, and energy
  change. :mod:`repro.core.policy` is the application-facing declarative
  policy object. :mod:`repro.core.overload` closes the overload loop:
  transport/admission pressure signals drive a governor that degrades the
  per-state requirements toward a QoS floor (and restores them) via
  :meth:`Milan.set_requirements_override`.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "NetworkConfiguration": "repro.core.configurator",
    "configure": "repro.core.configurator",
    "combined_reliability": "repro.core.feasibility",
    "greedy_feasible_set": "repro.core.feasibility",
    "minimal_feasible_sets": "repro.core.feasibility",
    "satisfies": "repro.core.feasibility",
    "Milan": "repro.core.milan",
    "DEFAULT_LEVELS": "repro.core.overload",
    "OverloadGovernor": "repro.core.overload",
    "OverloadLevel": "repro.core.overload",
    "queue_pressure": "repro.core.overload",
    "rejection_pressure": "repro.core.overload",
    "BluetoothPlugin": "repro.core.plugins",
    "NetworkContext": "repro.core.plugins",
    "NetworkPlugin": "repro.core.plugins",
    "ApplicationPolicy": "repro.core.policy",
    "ReconfigEngine": "repro.core.reconfig",
    "VariableRequirements": "repro.core.requirements",
    "SelectionStrategy": "repro.core.selection",
    "select_best": "repro.core.selection",
    "SensorInfo": "repro.core.sensors",
    "StateMachine": "repro.core.state",
})
