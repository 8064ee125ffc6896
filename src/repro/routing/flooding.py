"""Flooding: the baseline that always works and always costs the most.

Every envelope is rebroadcast by every node (duplicate-suppressed at the
agent, TTL-bounded). Reaches any connected destination with zero routing
state — the overhead baseline for experiment E5.
"""

from __future__ import annotations

from repro.obs.tracing import TRACER
from repro.routing.base import Disposition, Envelope, Router


class FloodingRouter(Router):
    """Rebroadcast everything not addressed to us."""

    def route(self, envelope: Envelope) -> Disposition:
        if TRACER.enabled:
            TRACER.instant("route.flood_decision", parent=envelope.trace_ctx,
                           node=self.agent.node_id,
                           dest=envelope.destination.node, ttl=envelope.ttl)
        return ("flood", None)
