"""Experiment harnesses: one module per row of DESIGN.md's experiment index.

Each module exposes a ``run(...)`` function returning a list of result-row
dicts plus helpers to render them as the table/series the paper (or the
claim being tested) corresponds to. The ``benchmarks/`` suite wraps these
with pytest-benchmark; EXPERIMENTS.md records representative outputs.

Experiments:

==========  ==========================================  =======================
Id          Claim under test                            Module
==========  ==========================================  =======================
F1          Figure 1 bibliometrics                      exp_figure1
E2          discovery modes vs size/churn (§3.3)        exp_discovery
E2b         registry mirroring (§3.3)                   exp_discovery
E3          spatial vs logical matching (§3.4)          exp_spatial
E4          graceful degradation (§3.4)                 exp_degradation
E5          routing & lifetime (§3.5, §4)               exp_routing
E5b         routing without tables (§3.5)               exp_routing
E6          transaction paradigms (§3.6)                exp_transactions
E7          scheduling policies (§3.7)                  exp_scheduling
E7b         handoff (§3.7)                              exp_handoff
E8          log-based recovery (§3.8)                   exp_recovery
E9          markup interoperability cost (§3.9)         exp_interop
E10         MiLAN lifetime vs baselines (§4)            exp_milan
E11         MiLAN plug-and-play adaptation (§4)         exp_adaptation
E12         network independence (§3.2)                 exp_netindep
==========  ==========================================  =======================
"""

from repro.experiments.common import format_table

__all__ = ["format_table"]
