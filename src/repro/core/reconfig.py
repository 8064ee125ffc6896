"""Incremental reconfiguration: the engine behind ``Milan``'s warm round.

:class:`ReconfigEngine` memoizes candidate enumerations, and the columns
and configurations compiled from them, under a structural fingerprint::

    (fleet key, requirements signature, exhaustive_limit, redundancy)

where the fleet key is the tuple of ``(sensor_id, sensor_signature,
node_id)`` over non-depleted sensors, in the sensors dict's own order.
Energy is not in it, so an energy-only round hits. The key is rebuilt
from live state every round, so a sensor death, removal, addition, move
to another node or direct ``context.sensors`` swap lands on another key
whether or not anyone announced it.

Exactness: the miss paths are the uncached code (the ``compute`` thunk and
``score_columns``, whose floats associate over id-sorted members), so a
round chooses, scores and configures exactly as ``Milan(incremental=False)``
does; ``tests/test_feasibility_property.py`` asserts it round by round.
What an entry holds, the warm round, invalidation and the counters are
described once, in docs/ARCHITECTURE.md, "The warm round".
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.configurator import NetworkConfiguration, configure
from repro.core.feasibility import requirements_signature, sensor_signature
from repro.core.plugins import NetworkContext
from repro.core.selection import (
    Columns, SelectionStrategy, SetScore, check_own_ids, score_columns,
)
from repro.core.sensors import SensorInfo

SensorSet = FrozenSet[str]
#: ((sensor_id, signature, node_id), ...) over alive sensors, in the sensors
#: dict's order.
FleetKey = Tuple
CacheKey = Tuple
#: One walk of the sensors: the fleet key, each alive sensor's lifetime by
#: fleet position then ``inf``, and each depleted sensor's node.
Probe = Tuple[FleetKey, List[float], List[Optional[str]]]
_INF = float("inf")


class FeasibilityEntry:
    """One fingerprint's candidates, their compiled columns, and the
    configurations of the candidates that have won a round."""

    __slots__ = ("key", "candidates", "gathers", "performance", "power",
                 "tie_keys", "configurations", "layout")

    def __init__(self, key: CacheKey, candidates: List[SensorSet]):
        self.key = key
        self.candidates = candidates
        #: Compiled by the entry's first ``select``, one item per candidate:
        #: an ``itemgetter`` of its members' positions in the fleet (in the
        #: probe's lifetimes), and the energy-independent columns of
        #: :func:`~repro.core.selection.score_columns`.
        self.gathers: Optional[List[Callable]] = None
        self.performance: List[float] = []
        self.power: List[float] = []
        self.tie_keys: List[Tuple] = []
        #: Each candidate's ``configure`` result by position, filled as
        #: candidates win, valid while ``layout`` (the depleted sensors'
        #: nodes and the sink) holds; the key pins the alive sensors' nodes.
        self.configurations: List[Optional[NetworkConfiguration]] = []
        self.layout: Optional[Tuple] = None


class ReconfigEngine:
    """The incremental engine behind ``Milan._run_pipeline``: one LRU of
    :class:`FeasibilityEntry` under structural fingerprints, the per-sensor
    memo the probe reads, and the counters ``stats`` reports.

    Keys are structural (see the module docstring), so stale reads are
    impossible; ``max_entries`` bounds memory across state and fleet churn.
    The per-sensor memo is validated by *identity* of the
    (immutable-by-convention) reliabilities mapping plus power and node id
    equality — ``SensorInfo.with_energy``/``drained`` preserve all three,
    which is what makes the energy-only probe cheap. Holding the mapping
    reference also pins it, so object-id reuse cannot fool the identity
    check.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, FeasibilityEntry]" = OrderedDict()
        #: sensor id -> (reliabilities, power, node id, its fleet-key item)
        self._memos: Dict[str, Tuple[Dict[str, float], float, Optional[str],
                                     Tuple]] = {}
        self._last: Optional[FeasibilityEntry] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.score_hits = 0
        self.score_misses = 0

    # ----------------------------------------------------------------- probe

    def probe(self, sensors: Dict[str, SensorInfo]) -> Probe:
        """One walk of ``sensors``, in the dict's own order, each alive
        sensor's ``lifetime_if_active()`` computed in line. A record under
        another key than its id is a ``ConfigurationError`` naming both.
        """
        memos = self._memos
        fleet = []
        lifetimes: List[float] = []
        depleted_nodes: List[Optional[str]] = []
        for sid, sensor in sensors.items():
            if sensor.sensor_id != sid:
                check_own_ids(sensors)
            if sensor.depleted:
                depleted_nodes.append(sensor.node_id)
                continue
            memo = memos.get(sid)
            if (
                memo is None
                or memo[0] is not sensor.reliabilities
                or memo[1] != sensor.active_power_w
                or memo[2] != sensor.node_id
            ):
                memo = self._remember(sensor)
            fleet.append(memo[3])
            power = memo[1]
            lifetimes.append(_INF if power == 0 else sensor.energy_j / power)
        lifetimes.append(_INF)
        return tuple(fleet), lifetimes, depleted_nodes

    def _remember(self, sensor: SensorInfo) -> Tuple:
        sid, node_id = sensor.sensor_id, sensor.node_id
        memo = self._memos[sid] = (
            sensor.reliabilities, sensor.active_power_w, node_id,
            (sid, sensor_signature(sensor), node_id),
        )
        return memo

    # ----------------------------------------------------------------- cache

    def lookup(self, key: CacheKey) -> Optional[FeasibilityEntry]:
        # The entry last returned or stored is the most recently used, so
        # a key equal to its key needs neither the hash nor the LRU move.
        last = self._last
        if last is not None and key == last.key:
            self.hits += 1
            return last
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._last = entry
        return entry

    def store(self, key: CacheKey, candidates: List[SensorSet]) -> FeasibilityEntry:
        entry = self._entries[key] = FeasibilityEntry(key, candidates)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        self._last = entry if key in self._entries else None
        return entry

    def invalidate_sensor(self, sensor_id: str) -> int:
        """Evict the sensor's memo and every entry keyed on it; returns the
        number of entries dropped.

        Wired into ``add_sensor`` (a re-registration may carry new
        reliabilities), ``remove_sensor`` and sensor death. Structural
        keying already keeps such entries from being *wrongly* hit; this
        reclaims their memory the moment they become unreachable.
        """
        self._memos.pop(sensor_id, None)
        stale = [
            key for key in self._entries
            if any(item[0] == sensor_id for item in key[0])
        ]
        for key in stale:
            if self._entries.pop(key) is self._last:
                self._last = None
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self._memos.clear()
        self._last = None

    # ------------------------------------------------------------ candidates

    def candidates(
        self,
        sensors: Dict[str, SensorInfo],
        requirements: Dict[str, float],
        policy,
        compute: Callable[[], List[SensorSet]],
    ) -> Tuple[FeasibilityEntry, Probe]:
        """The memoized entry for the current fingerprint, and the probe
        that keyed it; ``select`` takes both.

        ``compute`` is the uncached enumeration (Milan's own pipeline
        code), called only on a fingerprint miss — so ``entry.candidates``
        is byte-identical to what the uncached path would have produced.
        Callers must treat it as immutable.
        """
        probe = self.probe(sensors)
        key = (
            probe[0],
            requirements_signature(requirements),
            policy.exhaustive_limit,
            policy.redundancy,
        )
        entry = self.lookup(key)
        if entry is None:
            entry = self.store(key, compute())
        return entry, probe

    # --------------------------------------------------------------- scoring

    def select(
        self,
        entry: FeasibilityEntry,
        probe: Probe,
        candidates: Sequence[SensorSet],
        context: NetworkContext,
        requirements: Dict[str, float],
        strategy: SelectionStrategy,
        elect_master: bool = False,
    ) -> Optional[Tuple[SetScore, NetworkConfiguration]]:
        """The strategy's pick over ``entry``'s compiled columns, and the
        winner's configuration; ``candidates`` are the entry's after
        network filtering, ``probe`` and ``requirements`` its lookup's.

        ``None`` when there is nothing to rank, or when the plugins have
        moved the fleet key: the caller scores that round uncached.
        """
        if not candidates:
            return None
        sensors = context.sensors
        _, lifetimes, depleted_nodes = probe
        filtered = candidates is not entry.candidates
        if filtered:
            # The plugins ran since the probe, and may have written
            # ``context.sensors``: probe again.
            fleet, lifetimes, depleted_nodes = self.probe(sensors)
            if fleet != entry.key[0]:
                # The fingerprint no longer vouches for the compiled columns.
                self.score_misses += len(candidates)
                return None
        if entry.gathers is None:
            self._compile(entry, sensors, requirements)
        columns = Columns(
            entry.candidates,
            [min(gather(lifetimes)) for gather in entry.gathers],
            entry.performance, entry.power, entry.tie_keys,
        )
        if filtered:
            position = dict(zip(entry.candidates, range(len(entry.candidates))))
            kept = [position[sensor_set] for sensor_set in candidates]
            columns = Columns(*([column[i] for i in kept] for column in columns))
        self.score_hits += len(candidates)
        index = strategy(columns)
        score = columns.score(index)
        if context.network is not None or elect_master:
            # Routers follow the live topology, the master residual energy.
            return score, configure(score.sensor_set, context, elect_master)
        # Otherwise ``configure`` reads the members' nodes (pinned by the
        # key), every other sensor's node and the sink (pinned here).
        layout = (depleted_nodes, context.sink_node_id)
        if entry.layout != layout:
            entry.configurations = [None] * len(entry.candidates)
            entry.layout = layout
        at = kept[index] if filtered else index
        configuration = entry.configurations[at]
        if configuration is None:
            configuration = entry.configurations[at] = configure(
                score.sensor_set, context)
        return score, configuration

    def _compile(
        self,
        entry: FeasibilityEntry,
        sensors: Dict[str, SensorInfo],
        requirements: Dict[str, float],
    ) -> None:
        """Each candidate's members as fleet positions, and its
        energy-independent columns exactly as ``score_columns`` makes them."""
        fleet = entry.key[0]
        position = {item[0]: i for i, item in enumerate(fleet)}
        empty = (len(fleet),) * 2  # the trailing infinite lifetime
        gathers = []
        for sensor_set in entry.candidates:
            members = [position[sensor_id] for sensor_id in sensor_set] or empty
            if len(members) == 1:
                members *= 2  # itemgetter of one index returns no tuple
            gathers.append(itemgetter(*members))
        columns = score_columns(entry.candidates, sensors, requirements)
        entry.performance = columns.performance
        entry.power = columns.power
        entry.tie_keys = columns.tie_keys
        entry.gathers = gathers
        self.score_misses += len(gathers)

    # ------------------------------------------------------------ inspection

    def stats(self) -> Dict[str, float]:
        return {
            "feasibility_hits": self.hits,
            "feasibility_misses": self.misses,
            "feasibility_invalidations": self.invalidations,
            "feasibility_entries": len(self._entries),
            "score_hits": self.score_hits,
            "score_misses": self.score_misses,
            "score_entries": sum(len(entry.gathers or ())
                                 for entry in self._entries.values()),
        }
