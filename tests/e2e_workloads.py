"""``benchmarks/e2e/workloads.py``, loaded read-only (it is not a package),
and the fresh interpreters that count what an import loads and what a
workload's run allocates.

A module of its own so that a fresh interpreter can load the benchmark's
workloads without importing a test module, and so count what the
benchmark's own imports load.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "benchmarks" / "e2e" / "workloads.py"


def load():
    """The module, registered in ``sys.modules`` first: its dataclasses look
    their module up there while they are built."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def repro_modules_first_imported(code, *argv, setup="", package="repro"):
    """The ``repro`` modules a fresh interpreter first imports while it runs
    ``code``, after ``setup``, with ``argv`` as ``sys.argv[1:]`` (another
    top-level ``package``'s modules, when one is named).
    """
    script = (f"import sys\n{setup}\nbefore = set(sys.modules)\n{code}\n"
              "print(*[m for m in sys.modules if m not in before"
              f" and m.split('.')[0] == {package!r}])")
    return _in_child(script, *argv).split()


def traced_peak_of_run(name):
    """The ``tracemalloc`` peak, in bytes, of workload ``name``'s ``run()``
    at its smoke size, seed 0, in a fresh interpreter: built first, then
    ``gc.collect()``, then traced from the run's first allocation."""
    script = ("import gc, sys, tracemalloc\n"
              "from tests import e2e_workloads\n"
              "workload = e2e_workloads.load().build(sys.argv[1], 0, smoke=True)\n"
              "gc.collect()\n"
              "tracemalloc.start()\n"
              "workload.run()\n"
              "print(tracemalloc.get_traced_memory()[1])")
    return int(_in_child(script, name))


def held_bytes_per(kind, count):
    """Bytes held per item, by ``tracemalloc`` in a fresh interpreter, once
    ``count`` items of ``kind`` are built: ``"node"``, the nodes of a
    ``count`` x ``count`` swarm grid (30 m spacing, 100 m range); or
    ``"schedule_at"`` / ``"call_later"``, pending zero-arg events at
    distinct times, each return value kept. The lists holding the return
    values and the simulator's heap and run are not counted: their slots
    are the caller's and the queue's, not the item's."""
    script = ("import gc, sys, tracemalloc\n"
              "from repro.netsim.medium import RadioProfile\n"
              "from repro.netsim.simulator import Simulator\n"
              "from repro.netsim.topology import grid\n"
              "kind, count = sys.argv[1], int(sys.argv[2])\n"
              "profile = RadioProfile(name='swarm', bandwidth_bps=11e6,\n"
              "    range_m=100.0, base_latency_s=0.001, contention_window_s=0.0)\n"
              "sim, fn = Simulator(), lambda: None\n"
              "gc.collect()\n"
              "tracemalloc.start()\n"
              "if kind == 'node':\n"
              "    kept = [grid(count, count, spacing=30.0, radio_profile=profile)]\n"
              "    count *= count\n"
              "else:\n"
              "    schedule = getattr(sim, kind)\n"
              "    kept = [schedule(1.0 + i, fn) for i in range(count)]\n"
              "gc.collect()\n"
              "held = (tracemalloc.get_traced_memory()[0] - sys.getsizeof(kept)\n"
              "        - sys.getsizeof(sim._heap) - sys.getsizeof(sim._run))\n"
              "print(held / count)")
    return float(_in_child(script, kind, str(count)))


def cache_bytes_per_command():
    """Bytes a replica's at-most-once cache holds per applied command, by
    ``tracemalloc`` in a fresh interpreter, over the whole group:
    ``ledger_write`` at its smoke size, seed 0, traced from the run's first
    allocation; what the caches hold is what dropping them frees."""
    script = ("import gc, tracemalloc\n"
              "from tests import e2e_workloads\n"
              "workload = e2e_workloads.load().build('ledger_write', 0,"
              " smoke=True)\n"
              "gc.collect()\n"
              "tracemalloc.start()\n"
              "workload.run()\n"
              "replicas = workload.scenario.archetype.replicas.values()\n"
              "applied = sum(r.applied_index for r in replicas)\n"
              "gc.collect()\n"
              "held = tracemalloc.get_traced_memory()[0]\n"
              "for r in replicas:\n"
              "    r._results = r._outcomes = r._settled = None\n"
              "gc.collect()\n"
              "print((held - tracemalloc.get_traced_memory()[0]) / applied)")
    return float(_in_child(script))


def scenario_calls(name, hash_seed):
    """``src/repro`` calls that scenario ``name`` makes at seed 0, counted
    by ``count_repro_calls`` in a fresh interpreter at ``PYTHONHASHSEED``
    ``hash_seed``."""
    script = ("import sys\n"
              "from repro.obs.profiler import count_repro_calls\n"
              "from repro.workloads.runner import run_scenario\n"
              "calls = count_repro_calls(lambda: run_scenario(sys.argv[1]))\n"
              "print(sum(calls.values()))")
    return int(_in_child(script, name, PYTHONHASHSEED=str(hash_seed)))


def _in_child(script, *argv, **env):
    """``script``'s stdout in a fresh interpreter (environment inherited,
    ``PYTHONDONTWRITEBYTECODE`` too, so it compiles the tree without
    writing bytecode into it, plus ``env``) with ``src`` and the checkout
    (for ``tests``) on its path, ``argv`` as ``sys.argv[1:]``."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True,
        text=True, timeout=120,
        env={**os.environ, **env, "PYTHONPATH": path}, check=True)
    return out.stdout
