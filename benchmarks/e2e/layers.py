"""The layer table: which file under ``src/repro`` belongs to which layer.

Per-layer self time and call counts in the traced run are attributed by
the *file* a profiled function lives in. A rule is a path relative to
``src/repro``: a file name, or a directory ending in ``/``. The longest
matching rule wins, so ``interop/codec.py`` beats ``interop/``. Code
outside ``src/repro`` (the interpreter's builtins, the standard library,
numpy, the benchmark's own drivers) is the ``python`` layer.

The table is explicit — there is no catch-all rule — so the smoke test
can tell a maintainer that a new module has no layer yet. At run time an
unlisted file under ``src/repro`` is counted under ``util`` rather than
failing a benchmark that a later change may not edit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

LAYER_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("netsim.simulator", ("netsim/simulator.py", "util/priorityqueue.py",
                          "util/clock.py")),
    ("netsim.medium", ("netsim/medium.py", "netsim/vecindex.py",
                       "netsim/spatialindex.py", "netsim/mobility.py",
                       "netsim/topology.py")),
    ("netsim.node", ("netsim/node.py", "netsim/network.py",
                     "netsim/packet.py", "netsim/link.py",
                     "netsim/devices.py", "netsim/failures.py",
                     "netsim/shard.py")),
    ("netsim.energy", ("netsim/energy.py",)),
    ("transport", ("transport/",)),
    ("interop.codec", ("interop/codec.py",)),
    ("interop.frames", ("interop/",)),
    ("routing", ("routing/",)),
    ("discovery", ("discovery/", "naming/")),
    ("transactions", ("transactions/",)),
    ("replication", ("replication/",)),
    ("recovery", ("recovery/",)),
    ("qos", ("qos/", "scheduling/")),
    ("core", ("core/",)),
    ("obs", ("obs/", "monitoring.py", "netsim/trace.py")),
    ("workloads", ("workloads/", "experiments/", "netsim/chaos.py",
                   "simtest/", "middleware.py")),
    ("util", ("util/", "bibliometrics/", "errors.py", "__init__.py",
              "netsim/__init__.py")),
)

#: Everything that is not a file under ``src/repro``.
PYTHON_LAYER = "python"

LAYERS: Tuple[str, ...] = tuple(name for name, _ in LAYER_RULES) + (
    PYTHON_LAYER,
)

_RULES: Dict[str, str] = {
    rule: layer for layer, rules in LAYER_RULES for rule in rules
}


def layer_of(relative_path: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro``, or None if unlisted."""
    best: Optional[str] = None
    for rule in _RULES:
        matches = (relative_path.startswith(rule) if rule.endswith("/")
                   else relative_path == rule)
        if matches and (best is None or len(rule) > len(best)):
            best = rule
    return None if best is None else _RULES[best]
