"""Committed mutants of the fast paths, each with the property that kills it.

The rows cover MiLAN's feasibility and round engine, the medium's one
reception loop, and the simulator's queue (a heap beside a sorted run).

A row names a target (``module:qualname``), one text patch inside it (the
old text occurs exactly once in the target's file), the pytest node id of
the Hypothesis property that must fail once the patch is applied, and the
profile the property runs under. :func:`run_property` applies the patch to
a temporary copy of the ``repro`` package, never to the tree, and runs the
property in a child process with that copy first on ``PYTHONPATH``. A
monkeypatch in one process would not do: ``from ... import satisfies``
binds a copy of the original in ``repro.core.milan`` and in the test module.

Run every row, then every property on the unmutated copy (exit status 1
names each surviving mutant and each property the unmutated tree fails)::

    PYTHONPATH=src python -m tests.mutants
    PYTHONPATH=src python -m tests.mutants probe-ignores-node    # some rows

A row that survives its profile is a finding about its property: the
property is strengthened, and the mutant is never softened. Tier-1
(``tests/test_mutants.py``) checks only that every row still applies; the
kills run in CI's "Mutants" step.
"""

from __future__ import annotations

import importlib
import inspect
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SATISFIES = ("tests/test_feasibility_property.py::"
             "TestSatisfiesMatchesReference::test_same_answer")
ENGINE_ROUNDS = ("tests/test_feasibility_property.py::"
                 "TestEngineRoundsMatchUncached::test_rounds")
RECEPTION = ("tests/test_reception_property.py::"
             "TestDeliverMatchesReference::test_same_reception")
QUEUE = ("tests/test_simulator.py::"
         "TestQueueExactness::test_fires_as_one_heap_would")


class Mutant(NamedTuple):
    name: str
    target: str  # module:qualname
    old: str
    new: str
    prop: str  # pytest node id of the property that must fail
    profile: str  # HYPOTHESIS_PROFILE the property runs under


MUTANTS = (
    # The one-loop ``satisfies`` against the reference's generator form.
    Mutant("satisfies-strict", "repro.core.feasibility:satisfies",
           "(1.0 - miss) + 1e-12 >= required",
           "(1.0 - miss) + 1e-12 > required", SATISFIES, "ci"),
    Mutant("satisfies-no-epsilon", "repro.core.feasibility:satisfies",
           "(1.0 - miss) + 1e-12 >= required",
           "(1.0 - miss) >= required", SATISFIES, "ci"),
    Mutant("satisfies-early-true", "repro.core.feasibility:satisfies",
           "            return False\n    return True\n",
           "            return False\n        return True\n    return True\n",
           SATISFIES, "ci"),
    # Ranking compiled columns, and the cache's last-entry probe.
    Mutant("best-skips-tie-break", "repro.core.selection:_best",
           "if values.count(best) == 1:",
           "if values.count(best) >= 1:", ENGINE_ROUNDS, "ci"),
    Mutant("store-keeps-last", "repro.core.reconfig:ReconfigEngine.store",
           "        self._last = entry if key in self._entries else None\n",
           "", ENGINE_ROUNDS, "ci"),
    Mutant("invalidate-keeps-last",
           "repro.core.reconfig:ReconfigEngine.invalidate_sensor",
           "            if self._entries.pop(key) is self._last:\n"
           "                self._last = None\n",
           "            self._entries.pop(key)\n", ENGINE_ROUNDS, "ci"),
    Mutant("clear-keeps-last", "repro.core.reconfig:ReconfigEngine.clear",
           "        self._memos.clear()\n        self._last = None\n",
           "        self._memos.clear()\n", ENGINE_ROUNDS, "ci"),
    # One probe per round, and the configurations an entry keeps.
    Mutant("probe-ignores-node",
           "repro.core.reconfig:ReconfigEngine._remember",
           "(sid, sensor_signature(sensor), node_id)",
           "(sid, sensor_signature(sensor), None)", ENGINE_ROUNDS, "ci"),
    Mutant("layout-ignores-depleted", "repro.core.reconfig:ReconfigEngine.select",
           "layout = (depleted_nodes, context.sink_node_id)",
           "layout = (context.sink_node_id,)", ENGINE_ROUNDS, "ci"),
    # The medium's one reception loop against the per-receiver reference.
    Mutant("charge-in-place-at-equal", "repro.netsim.medium:WirelessMedium._deliver",
           "if remaining > rx_joules:", "if remaining >= rx_joules:",
           RECEPTION, "ci"),
    Mutant("crashed-receiver-hears", "repro.netsim.medium:WirelessMedium._deliver",
           "                if receiver._crashed:\n"
           "                    dead += 1\n                    continue\n",
           "", RECEPTION, "ci"),
    Mutant("empty-without-drain", "repro.netsim.medium:WirelessMedium._deliver",
           "                    battery.drain(rx_joules)\n",
           "                    battery.remaining = 0.0\n", RECEPTION, "ci"),
    Mutant("one-price-per-batch", "repro.netsim.medium:WirelessMedium._deliver",
           "if receiver.radio is not radio:", "if radio is None:",
           RECEPTION, "ci"),
    Mutant("wire-priced-as-air", "repro.netsim.medium:WirelessMedium._deliver",
           "radio.rx_cost(rx_bits) if on_air else 0.0",
           "radio.rx_cost(rx_bits)", RECEPTION, "ci"),
    Mutant("fault-size-ignored", "repro.netsim.medium:WirelessMedium._deliver",
           "                    size = heard.size_bytes\n", "", RECEPTION,
           "ci"),
    Mutant("raised-reception-uncounted",
           "repro.netsim.medium:WirelessMedium._deliver",
           "made = receivers.index(receiver) + 1",
           "made = receivers.index(receiver)", RECEPTION, "ci"),
    Mutant("handler-hears-sent-frame",
           "repro.netsim.medium:WirelessMedium._deliver",
           "handler(receiver, heard)", "handler(receiver, packet)",
           RECEPTION, "ci"),
    # The heap and the sorted run against one heap of every entry.
    Mutant("loop-compares-no-heads", "repro.netsim.simulator:Simulator._loop",
           "if run and not (heap and heap[0] < run[0]):", "if run:",
           QUEUE, "ci"),
    Mutant("run-takes-out-of-order",
           "repro.netsim.simulator:Simulator.schedule_at",
           "if self._tie_breaker is not None or run and when < run[-1][0]:",
           "if self._tie_breaker is not None:", QUEUE, "ci"),
    Mutant("sweep-counts-heap-only",
           "repro.netsim.simulator:EventHandle.cancel",
           "dead = len(heap) + len(run) - sim._live",
           "dead = len(heap) - sim._live", QUEUE, "ci"),
)


def source_file(target: str) -> Path:
    module = target.split(":")[0]
    return SRC.joinpath(*module.split(".")).with_suffix(".py")


def target_source(target: str) -> str:
    """The source text of ``module:qualname``, imported from ``src``."""
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return inspect.getsource(obj)


def run_property(prop: str, profile: str, mutant: Optional[Mutant] = None,
                 timeout: float = 900.0) -> subprocess.CompletedProcess:
    """Run ``prop`` in a child over a copy of ``src/repro``, patched by
    ``mutant`` if one is given."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        shutil.copytree(SRC / "repro", Path(tmp) / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = Path(tmp) / source_file(mutant.target).relative_to(SRC)
            text = path.read_text()
            assert text.count(mutant.old) == 1, mutant.name
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=tmp, HYPOTHESIS_PROFILE=profile,
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
             "-rf", prop],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)


def verdict(mutant: Mutant) -> str:
    """``killed`` when the mutant's property fails, ``SURVIVED`` when it
    passes, ``ERROR`` when the run went wrong some other way."""
    done = run_property(mutant.prop, mutant.profile, mutant)
    if done.returncode == 1 and f"FAILED {mutant.prop}" in done.stdout:
        return "killed"
    return "SURVIVED" if done.returncode == 0 else "ERROR"


def main(argv) -> int:
    names = set(argv)
    unknown = names - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown rows: {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    bad = []
    for mutant in rows:
        start = time.monotonic()
        outcome = verdict(mutant)
        print(f"{mutant.name:26} {outcome:8} {time.monotonic() - start:6.1f} s",
              flush=True)
        if outcome != "killed":
            bad.append(mutant.name)
    for prop, profile in sorted({(row.prop, row.profile) for row in rows}):
        start = time.monotonic()
        done = run_property(prop, profile)
        outcome = "passes" if done.returncode == 0 else "FAILS"
        print(f"unmutated {prop.split('::', 1)[1]:40} {outcome} "
              f"{time.monotonic() - start:6.1f} s", flush=True)
        if done.returncode != 0:
            print(done.stdout[-4000:])
            bad.append(f"unmutated {prop}")
    if bad:
        print(f"not as required: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
