"""Failure injection.

Sections 3.4 and 3.8 of the paper are about surviving failures (graceful
degradation, recovery). This module provides the failures to survive: node
crashes and recoveries, network partitions, lossy/slow periods, and frame
corruption — all scheduled deterministically on the simulator.

Semantics the chaos campaigns (:mod:`repro.workloads.campaign`) rely on:

* **Same-time ordering is deterministic.** The simulator's queue is stable,
  so faults scheduled for the same instant fire in scheduling order; a
  ``crash_and_recover`` with ``downtime=0`` additionally collapses into a
  single atomic blip event, so no interleaving can recover a node before
  its crash lands.
* **Overlapping outages compose.** Crash/recover pairs from independent
  injector calls nest via a per-node outage depth: a node recovers only
  when every outstanding crash has been matched by a recover, so one
  injector's recovery cannot resurrect a node another injector still holds
  down.
* **Partitions are reachability filters.** ``partition_at`` isolates a
  group in the medium without touching positions (see
  :meth:`repro.netsim.medium.WirelessMedium.isolate`), so active mobility
  models neither silently heal the partition nor get teleported by it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.interop.frames import FRAME_TYPES
from repro.netsim.network import Network
from repro.netsim.packet import Packet
from repro.util.rng import split_rng


class InjectedFault:
    """Record of one injected fault, for experiment reporting."""

    __slots__ = ("at", "kind", "target", "detail")

    def __init__(self, at: float, kind: str, target: str,
                 detail: str = "") -> None:
        self.at = at
        self.kind = kind
        self.target = target
        self.detail = detail


class FrameCorruptor:
    """A deterministic delivery-fault hook: corrupt/truncate/swallow frames.

    Installed on the medium while at least one corruption window is active.
    Draws come from a private stream derived from ``(seed, "corruptor")``,
    so enabling corruption does not perturb the medium's loss/contention
    stream. Only transport-shaped payloads — ``(src_port, dst_port, bytes)``
    tuples — are mangled; raw simulator payloads pass through untouched.

    ``only_ports`` narrows the blast radius to frames addressed to the
    given destination ports. The simulation-testing harness uses this to
    tamper with a stream that carries end-to-end integrity protection
    (:mod:`repro.transport.secure`) while leaving unauthenticated control
    protocols untouched, so oracle checks stay meaningful under corruption.
    """

    def __init__(self, seed: int, probability: float = 0.05,
                 truncate_fraction: float = 0.5,
                 only_ports: Optional[Sequence[str]] = None):
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"corruption probability must be in [0, 1], got {probability!r}"
            )
        self._rng = split_rng(seed, "corruptor")
        self.probability = probability
        self.truncate_fraction = truncate_fraction
        self.only_ports = None if only_ports is None else frozenset(only_ports)
        self.active_windows = 0
        self.corrupted = 0
        self.truncated = 0

    def __call__(self, receiver_id: str, packet: Packet) -> Optional[Packet]:
        payload = packet.payload
        # Frame types count as transport-shaped alongside raw bytes: chaos
        # must tamper with lazy frames too (forcing their materialization
        # below), and the isinstance gate must admit them BEFORE the rng
        # draw so the draw sequence is identical to the eager-bytes era.
        if not (isinstance(payload, tuple) and len(payload) == 3
                and isinstance(payload[2], (bytes, bytearray) + FRAME_TYPES)):
            return packet
        if self.only_ports is not None and payload[1] not in self.only_ports:
            return packet
        if self._rng.random() >= self.probability:
            return packet
        data = bytes(payload[2])
        if self._rng.random() < self.truncate_fraction:
            self.truncated += 1
            data = data[: self._rng.randrange(0, max(1, len(data)))]
        else:
            self.corrupted += 1
            if data:
                index = self._rng.randrange(0, len(data))
                data = data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]
            else:
                data = b"\xff"
        mangled = Packet(
            source=packet.source,
            destination=packet.destination,
            payload=(payload[0], payload[1], data),
            payload_bytes=packet.payload_bytes,
            trace=packet.trace,
        )
        return mangled


class FailureInjector:
    """Schedules failures on a network; keeps an audit trail."""

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self._rng = split_rng(seed, "failures")
        self.log: List[InjectedFault] = []
        # Outage nesting depth per node: crash 0->1 takes the node down,
        # recover 1->0 brings it back; anything else only book-keeps.
        self._outage_depth: Dict[str, int] = {}
        self._corruptor: Optional[FrameCorruptor] = None
        self._corruptor_seed = seed

    # -------------------------------------------------------------- crashes

    def crash_at(self, when: float, node_id: str) -> None:
        """Fail-stop a node at virtual time ``when``."""
        self.network.sim.schedule_at(when, self._crash_now, node_id)

    def recover_at(self, when: float, node_id: str) -> None:
        """Restart a crashed node at virtual time ``when``."""
        self.network.sim.schedule_at(when, self._recover_now, node_id)

    def crash_and_recover(self, node_id: str, crash_at: float, downtime: float) -> None:
        if downtime < 0:
            raise ConfigurationError(f"downtime must be >= 0, got {downtime!r}")
        if downtime == 0:
            # One atomic event: crash-then-recover with no interleaving, so
            # same-time faults from other injectors cannot land in between.
            self.network.sim.schedule_at(crash_at, self._blip_now, node_id)
            return
        self.crash_at(crash_at, node_id)
        self.recover_at(crash_at + downtime, node_id)

    def _crash_now(self, node_id: str) -> None:
        depth = self._outage_depth.get(node_id, 0)
        self._outage_depth[node_id] = depth + 1
        if depth == 0:
            self.network.node(node_id).crash()
            self.log.append(InjectedFault(self.network.sim.now(), "crash", node_id))
        else:
            self.log.append(InjectedFault(
                self.network.sim.now(), "crash", node_id, detail="nested"
            ))

    def _recover_now(self, node_id: str) -> None:
        depth = self._outage_depth.get(node_id, 0)
        if depth == 0:
            # Unmatched recover (double-recover guard): log, touch nothing.
            self.log.append(InjectedFault(
                self.network.sim.now(), "recover", node_id, detail="spurious"
            ))
            return
        self._outage_depth[node_id] = depth - 1
        if depth == 1:
            self.network.node(node_id).recover()
            self.log.append(InjectedFault(self.network.sim.now(), "recover", node_id))
        else:
            self.log.append(InjectedFault(
                self.network.sim.now(), "recover", node_id, detail="nested"
            ))

    def _blip_now(self, node_id: str) -> None:
        self._crash_now(node_id)
        self._recover_now(node_id)

    # ---------------------------------------------------------------- churn

    def random_churn(
        self,
        node_ids: Sequence[str],
        rate_per_node_s: float,
        downtime_s: float,
        until: float,
    ) -> int:
        """Schedule Poisson-ish crash/recover cycles on the given nodes.

        Each node independently crashes with exponential inter-failure times
        of mean ``1 / rate_per_node_s`` and stays down for ``downtime_s``.
        Returns the number of scheduled crash events.
        """
        scheduled = 0
        for node_id in node_ids:
            t = self.network.sim.now()
            while True:
                t += self._rng.expovariate(rate_per_node_s)
                if t >= until:
                    break
                self.crash_and_recover(node_id, t, downtime_s)
                scheduled += 1
                t += downtime_s
        return scheduled

    # ------------------------------------------------------------ partitions

    def partition_at(self, when: float, group: Sequence[str], duration: Optional[float] = None) -> None:
        """Isolate ``group`` from the rest of the network.

        Implemented as a reachability filter in the medium: frames between
        the group and the rest are dropped while the partition is active.
        Positions are untouched, so mobility models neither heal the
        partition on their next tick nor get reset to stale positions when
        it heals. Overlapping partitions compose (see
        :meth:`repro.netsim.medium.WirelessMedium.isolate`).
        """
        group = list(group)
        token_box: Dict[str, int] = {}

        def split() -> None:
            token_box["token"] = self.network.medium.isolate(group)
            self.log.append(
                InjectedFault(self.network.sim.now(), "partition", ",".join(group))
            )

        def heal() -> None:
            token = token_box.pop("token", None)
            if token is not None:
                self.network.medium.heal(token)
            self.log.append(
                InjectedFault(self.network.sim.now(), "heal", ",".join(group))
            )

        self.network.sim.schedule_at(when, split)
        if duration is not None:
            self.network.sim.schedule_at(when + duration, heal)

    # ------------------------------------------------- degradation and bursts

    def degrade_at(
        self,
        when: float,
        duration: float,
        extra_loss: float = 0.0,
        extra_latency_s: float = 0.0,
    ) -> None:
        """A degraded-medium window: added loss and/or latency.

        Models loss bursts and slow links. Overlapping windows compose
        additively and unwind exactly, whatever their nesting order.
        """
        if extra_loss < 0 or extra_latency_s < 0:
            raise ConfigurationError(
                f"degradation must be non-negative, got loss={extra_loss!r} "
                f"latency={extra_latency_s!r}"
            )
        medium = self.network.medium

        def start() -> None:
            medium.extra_loss_probability += extra_loss
            medium.extra_latency_s += extra_latency_s
            self.log.append(InjectedFault(
                self.network.sim.now(), "degrade", "medium",
                detail=f"+loss={extra_loss:g} +latency={extra_latency_s:g}",
            ))

        def stop() -> None:
            medium.extra_loss_probability = max(
                0.0, medium.extra_loss_probability - extra_loss
            )
            medium.extra_latency_s = max(
                0.0, medium.extra_latency_s - extra_latency_s
            )
            self.log.append(InjectedFault(
                self.network.sim.now(), "restore", "medium",
            ))

        self.network.sim.schedule_at(when, start)
        self.network.sim.schedule_at(when + duration, stop)

    def loss_burst_at(self, when: float, duration: float, extra_loss: float) -> None:
        """Shorthand: a pure added-loss window."""
        self.degrade_at(when, duration, extra_loss=extra_loss)

    # ------------------------------------------------------------ corruption

    def corrupt_frames_at(
        self,
        when: float,
        duration: float,
        probability: float = 0.05,
        truncate_fraction: float = 0.5,
        only_ports: Optional[Sequence[str]] = None,
    ) -> FrameCorruptor:
        """A window during which received frames are corrupted or truncated.

        ``probability`` is per-reception; ``truncate_fraction`` of the
        affected frames are truncated, the rest get a byte flipped.
        ``only_ports``, if given, restricts tampering to frames addressed
        to those destination ports (first window wins; overlapping windows
        share the injector's single corruptor). Overlapping windows share
        one :class:`FrameCorruptor` (the injector's corruption stream),
        which stays installed until the last window ends. Returns the
        corruptor, whose counters feed scorecards.
        """
        if self._corruptor is None:
            self._corruptor = FrameCorruptor(
                self._corruptor_seed, probability, truncate_fraction,
                only_ports=only_ports,
            )
        corruptor = self._corruptor
        medium = self.network.medium

        def start() -> None:
            corruptor.probability = probability
            corruptor.truncate_fraction = truncate_fraction
            corruptor.active_windows += 1
            if corruptor.active_windows == 1:
                medium.set_delivery_fault(corruptor)
            self.log.append(InjectedFault(
                self.network.sim.now(), "corrupt", "medium",
                detail=f"p={probability:g}",
            ))

        def stop() -> None:
            corruptor.active_windows = max(0, corruptor.active_windows - 1)
            if corruptor.active_windows == 0:
                medium.set_delivery_fault(None)
            self.log.append(InjectedFault(
                self.network.sim.now(), "uncorrupt", "medium",
            ))

        self.network.sim.schedule_at(when, start)
        self.network.sim.schedule_at(when + duration, stop)
        return corruptor
