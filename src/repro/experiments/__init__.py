"""Experiment harnesses: one ``exp_*`` module per family of measured tables.

Each module exposes ``run*`` functions returning a list of result-row dicts
and, beside each, the ``verdict*`` function that judges those rows. The rows
of :data:`repro.experiments.table.EXPERIMENTS` tie them together — id, paper
section, claim, ``run``, ``verdict`` — and are all the CLI, the sweep runner
and the generated ``EXPERIMENTS.md`` read (``python -m repro.experiments``
lists them).
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "format_table": "repro.experiments.common",
})
