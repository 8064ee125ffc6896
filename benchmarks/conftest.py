"""Benchmark-suite configuration.

The benches time the library (``run_benchmarks.py`` lists the files whose
ops ``BENCH_micro.json`` gates); some also print the comparison table they
assert on — run pytest with ``-s`` to see it. The paper's claims are not
here: ``python -m repro.experiments`` runs and judges them.
"""

from __future__ import annotations


def emit(table: str) -> None:
    """Print an experiment table, framed so it stands out in -s output."""
    print()
    print(table)
    print()
