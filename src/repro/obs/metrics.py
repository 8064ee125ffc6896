"""Counters, the counter catalogue, and streaming histograms.

One counter mechanism: a counted event is one ``x += 1`` on a slot of the
object that saw it. :data:`COUNTERS` declares every slot that no library
code reads back, with its owner, unit, layer and meaning, so a reader
knows where to find each count; ``tests/test_judging_kit.py`` fails by
name when a row names a class or attribute that is not there.

:class:`Histogram` is a fixed-bucket streaming estimator: geometric bucket
bounds, O(1) memory, nearest-rank percentiles read from the bucket upper
edge (clamped to the observed min/max). Good to ~2x relative error at the
default bucket growth, which is what latency dashboards need; callers
wanting exact percentiles keep their raw samples and read them through
:class:`Summary` / :func:`nearest_rank`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Sequence, Tuple


#: Histogram bucket bounds: geometric, 1 µs .. ~134 s (factor 2 per bucket).
BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(28))


class Histogram:
    """Fixed-bucket streaming distribution with percentile estimates."""

    __slots__ = ("bucket_counts", "count", "minimum", "maximum")

    def __init__(self) -> None:
        # One overflow bucket past the last bound.
        self.bucket_counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(BUCKET_BOUNDS, value)] += 1
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (bucket upper edge, clamped to the
        observed [min, max]).

        Degenerate histograms are well-defined, not errors — scorecards from
        zero-traffic windows depend on this:

        * empty (``count == 0``): every quantile is **0.0**;
        * single sample: every quantile is exactly that sample (the clamp
          to [min, max] collapses the bucket edge onto it).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                edge = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.maximum
                return min(max(edge, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - ranks always land above


#: Every counter slot no library code reads back, for the readers outside
#: it (a test, a debugger, a conservation judge): ``name -> (owner class,
#: attribute, unit, layer, meaning)``. A counter the library itself reads
#: (a scorecard, a ``stats()``) needs no row.
COUNTERS: Dict[str, Tuple[str, str, str, str, str]] = {
    "netsim.simulator.periodic_firings": (
        "PeriodicEvent", "firings", "events", "netsim.simulator",
        "times a periodic event has fired"),
    "netsim.medium.drops_dead": (
        "WirelessMedium", "drops_dead", "receptions", "netsim.medium",
        "receptions lost to an absent, crashed or depleted receiver"),
    "netsim.medium.drops_out_of_range": (
        "WirelessMedium", "drops_out_of_range", "receptions", "netsim.medium",
        "unicasts whose destination was out of radio range"),
    "netsim.node.packets_sent": (
        "Node", "packets_sent", "packets", "netsim.node",
        "transmissions the node was charged energy for"),
    "netsim.node.packets_received": (
        "Node", "packets_received", "packets", "netsim.node",
        "packets the node heard and accepted"),
    "netsim.node.bytes_received": (
        "Node", "bytes_received", "bytes", "netsim.node",
        "bytes of the packets the node received"),
    "netsim.devices.gps_fixes": (
        "GpsDevice", "fixes", "readings", "netsim.node",
        "position fixes the receiver delivered"),
    "netsim.devices.gps_failed_fixes": (
        "GpsDevice", "failed_fixes", "readings", "netsim.node",
        "fixes asked for before acquisition or during an outage"),
    "transport.sent_bytes": (
        "Transport", "sent_bytes", "bytes", "transport",
        "bytes an endpoint handed to its network"),
    "transport.received_messages": (
        "Transport", "received_messages", "messages", "transport",
        "messages an endpoint delivered to its receiver"),
    "transport.received_bytes": (
        "Transport", "received_bytes", "bytes", "transport",
        "bytes of the messages an endpoint delivered"),
    "transport.inmemory.dropped": (
        "InMemoryFabric", "messages_dropped", "messages", "transport",
        "messages the fabric lost, or found no open endpoint for"),
    "transport.reliable.acks_sent": (
        "ReliableTransport", "acks_sent", "frames", "transport",
        "acknowledgements sent, duplicates re-acked included"),
    "transport.paced.shed_oversize": (
        "PacedTransport", "shed_oversize", "messages", "transport",
        "sends shed because no burst of the flow could ever carry them"),
    "transport.secure.auth_failures": (
        "SecureTransport", "auth_failures", "frames", "transport",
        "frames that failed to open under the channel key"),
    "transport.endpoint.timeouts": (
        "MessageEndpoint", "timeouts", "requests", "transport",
        "requests rejected after their last retry expired"),
    "interop.frames.materialized": (
        "WireFrame", "materialized", "frames", "interop.frames",
        "frames encoded to bytes, process-wide"),
    "routing.dsr.rreqs_sent": (
        "DsrRouter", "rreqs_sent", "packets", "routing",
        "route requests flooded"),
    "routing.dsr.rreps_sent": (
        "DsrRouter", "rreps_sent", "packets", "routing",
        "route replies sent back along a discovered path"),
    "routing.dsr.route_errors": (
        "DsrRouter", "route_errors", "events", "routing",
        "cached routes repaired around a dead next hop"),
    "routing.dsr.discovery_failures": (
        "DsrRouter", "discovery_failures", "envelopes", "routing",
        "envelopes stranded when a route discovery timed out"),
    "routing.geographic.local_minima": (
        "GeographicRouter", "local_minima", "envelopes", "routing",
        "envelopes dropped with no neighbour closer to the destination"),
    "discovery.adaptive.mode_switches": (
        "AdaptiveDiscovery", "mode_switches", "events", "discovery",
        "switches between centralized and distributed discovery"),
    "discovery.registry.replications_sent": (
        "RegistryServer", "replications_sent", "messages", "discovery",
        "registration updates copied to peer registries"),
    "discovery.webserver.errors": (
        "EmbeddedWebServer", "errors", "requests", "discovery",
        "requests that did not parse or whose handler raised"),
    "transactions.rpc.timeouts": (
        "RpcEndpoint", "timeouts", "calls", "transactions",
        "calls rejected after their last retry expired"),
    "transactions.pubsub.events_delivered": (
        "PubSubBroker", "events_delivered", "events", "transactions",
        "events sent to a matching subscriber"),
    "transactions.messaging.redeliveries": (
        "MessageBroker", "redeliveries", "messages", "transactions",
        "messages requeued after a consumer failed to ack"),
    "transactions.sharedobjects.reads_served": (
        "SharedObjectHost", "reads_served", "requests", "transactions",
        "object reads the host answered"),
    "transactions.sharedobjects.cache_hits": (
        "SharedObjectCache", "cache_hits", "reads", "transactions",
        "reads answered from the local cache"),
    "transactions.sharedobjects.cache_misses": (
        "SharedObjectCache", "cache_misses", "reads", "transactions",
        "reads sent on to the host"),
    "transactions.sharedobjects.invalidations_received": (
        "SharedObjectCache", "invalidations_received", "messages",
        "transactions", "invalidations the cache received"),
    "transactions.streaming.frames_received": (
        "StreamingSink", "frames_received", "frames", "transactions",
        "stream frames that arrived, late and duplicate ones included"),
    "transactions.agents.refused": (
        "AgentHost", "agents_refused", "agents", "transactions",
        "arriving agents of a class the host does not know"),
    "replication.appends": (
        "ReplicaNode", "appends", "entries", "replication",
        "log entries a primary appended, its no-op included"),
    "replication.commits": (
        "ReplicaNode", "commits", "entries", "replication",
        "log entries committed and applied"),
    "replication.reads_primary": (
        "ReplicaNode", "reads_primary", "reads", "replication",
        "reads served by the primary"),
    "replication.reads_stale": (
        "ReplicaNode", "reads_stale", "reads", "replication",
        "reads a backup refused as older than the client's floor"),
    "recovery.checkpoints_taken": (
        "CheckpointManager", "checkpoints_taken", "records", "recovery",
        "checkpoint records written"),
    "recovery.wal.truncated_on_open": (
        "WriteAheadLog", "truncated_on_open", "records", "recovery",
        "torn tail records dropped when the log was opened"),
    "qos.contract.observations": (
        "QoSContract", "total_observations", "deliveries", "qos",
        "deliveries the contract has judged"),
    "qos.monitor.rebinds": (
        "DegradationManager", "rebinds", "events", "qos",
        "binds to a supplier other than the current one"),
    "core.binder.refreshes": (
        "DiscoveryBinder", "refreshes", "lookups", "core",
        "discovery lookups applied to MiLAN's sensor set"),
    "core.milan.infeasible_rounds": (
        "Milan", "infeasible_rounds", "rounds", "core",
        "reconfigurations with no feasible set (greedy fallback)"),
    "qos.scheduling.task_completions": (
        "ScheduledTask", "completions", "runs", "qos",
        "runs of the task that finished"),
}


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample, ``q`` in [0, 1].

    An empty sample yields **0.0** (as :meth:`Histogram.quantile` does), so
    percentiles over zero-traffic windows are values rather than exceptions.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


class Summary:
    """Summary statistics of a sample set."""

    __slots__ = ("count", "minimum", "maximum", "p50", "p95", "p99")

    def __init__(self, count: int, minimum: float, maximum: float,
                 p50: float, p95: float, p99: float) -> None:
        self.count = count
        self.minimum = minimum
        self.maximum = maximum
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99

    @staticmethod
    def of(values: Sequence[float]) -> "Summary":
        if not values:
            return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        return Summary(
            count=len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=nearest_rank(ordered, 0.50),
            p95=nearest_rank(ordered, 0.95),
            p99=nearest_rank(ordered, 0.99),
        )
