"""Run every mutant of the defect table against the property that must kill it.

A mutant is a row of :data:`repro.simtest.defects.DEFECTS` whose judge is
the pytest node id of a Hypothesis property (MiLAN's feasibility and round
engine, the medium's one reception loop, the simulator's queue) or, for the
engine's LRU bound, which no property reaches, of a unit test. For each
row a child process applies the row in process
(:func:`repro.simtest.defects.applied`) and runs pytest on the property
under the ``ci`` profile; the property must fail. Then each property must
pass unmutated. Exit status 1 names each surviving mutant and each property
the unmutated tree fails::

    PYTHONPATH=src python -m tests.mutants
    PYTHONPATH=src python -m tests.mutants probe-ignores-node    # some rows

The ``ci`` seed hashes the test function's source, so editing a property
re-draws its examples: re-run the rows.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.simtest.defects import DEFECTS, PLANTS

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = [row for name, row in DEFECTS.items() if name not in PLANTS]

#: The child: ``argv`` is the row's name ("" for none) and the property.
CHILD = ("import contextlib, sys, pytest\n"
         "from repro.simtest.defects import applied\n"
         "name, prop = sys.argv[1:]\n"
         "with applied(name) if name else contextlib.nullcontext():\n"
         "    sys.exit(pytest.main(['-p', 'no:cacheprovider', '-rf', prop]))\n")


def run_property(prop: str, name: str = "",
                 timeout: float = 900.0) -> subprocess.CompletedProcess:
    """Run ``prop`` under ``ci`` in a child, with mutant ``name`` applied."""
    return subprocess.run(
        [sys.executable, "-c", CHILD, name, prop], cwd=ROOT,
        env=dict(os.environ, HYPOTHESIS_PROFILE="ci"), capture_output=True,
        text=True, timeout=timeout)


def verdict(name: str) -> str:
    """``killed`` when the mutant's property fails, ``SURVIVED`` when it
    passes, ``ERROR`` when the run went wrong some other way."""
    prop = DEFECTS[name].judge
    done = run_property(prop, name)
    if done.returncode == 1 and f"FAILED {prop}" in done.stdout:
        return "killed"
    return "SURVIVED" if done.returncode == 0 else "ERROR"


def main(argv) -> int:
    names = set(argv)
    unknown = names - {row.name for row in MUTANTS}
    if unknown:
        print(f"unknown rows: {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = [row for row in MUTANTS if not names or row.name in names]
    bad = []
    for row in rows:
        start = time.monotonic()
        outcome = verdict(row.name)
        print(f"{row.name:26} {outcome:8} {time.monotonic() - start:6.1f} s",
              flush=True)
        if outcome != "killed":
            bad.append(row.name)
    for prop in sorted({row.judge for row in rows}):
        start = time.monotonic()
        done = run_property(prop)
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
