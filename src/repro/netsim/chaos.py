"""Forwarder: the chaos campaign lives in :mod:`repro.workloads.campaign`.

Kept because the benchmark of record (``benchmarks/e2e``) binds to this
path. Nothing in ``repro.netsim`` imports it — the simulator knows nothing
about the middleware the campaign stands up on it.
"""

from repro.workloads.campaign import (  # noqa: F401
    FAULT_MIXES,
    CampaignSpec,
    ChaosCampaign,
    run_campaign,
    scorecard_bytes,
)
