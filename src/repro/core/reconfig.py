"""Incremental reconfiguration: feasibility caching + energy-only fast path.

MiLAN "continually monitors" the network: lifetime experiments alternate
``advance_time`` with ``reconfigure`` in a tight loop, and most of those
rounds change nothing but residual energy. Energy changes that do not
deplete a sensor cannot change *which* sets are feasible — feasibility
depends only on the alive sensors' reliabilities and the state's
requirements — so re-running the minimal-feasible-set enumeration (the
slowest micro-bench in BENCH_micro.json) on every round is pure waste.

:class:`FeasibilityCache` memoizes candidate enumerations under a
structural fingerprint::

    (alive fleet key, requirements signature, exhaustive_limit, redundancy)

where the fleet key is the tuple of ``(sensor_id, sensor_signature,
node_id)`` over non-depleted sensors, in the sensors dict's own order (the
enumeration id-sorts the fleet itself, so a reordered fleet is a miss,
never a different list). One walk of the sensors dict per round,
:meth:`FeasibilityCache.probe`, builds it and, in the same pass, divides
each alive sensor's ``lifetime_if_active()`` in line and lists each
depleted sensor's node. Per sensor that is an id check (a record under
another key than its id is a ``ConfigurationError`` naming both), the
stored ``depleted`` slot and, if alive, a memo validated by identity of
the reliabilities mapping and equality of power and node id, whose stored
key item is appended as is, with no call. So correctness never depends on
callers announcing changes: a sensor death, removal, addition, move to
another node, or even a direct ``context.sensors[sid] = ...`` swap (as the
secure binder does) lands on a different key and misses. Explicit *delta
invalidation* (:meth:`ReconfigEngine.invalidate_sensor`, wired into
``add_sensor`` / ``remove_sensor`` / sensor death) is hygiene on top: it
evicts entries that can never be hit again and keeps the cache honest
about memory.

:class:`ReconfigEngine` adds the scoring half of the fast path. An entry's
first ``select`` compiles its energy-independent columns once: each
candidate's members as positions in the entry's fleet (an
``itemgetter``), and the ``performance``, ``power`` and tie-break-key
columns of ``score_columns``. The fleet key pins every alive sensor's
signature, which is all those columns depend on, so the fingerprint
validates them and the one cache bounds and evicts them. A warm
energy-only ``reconfigure()`` computes only what changes: the probe, a
lookup (the entry the cache last returned is re-probed by equality, with
no hash and no LRU move), plugin filtering, the lifetime column as
``min(gather(lifetimes))`` per candidate over the probe's lifetimes, the
strategy's pick over the columns (the contract of
:mod:`repro.core.selection`), and one :class:`SetScore`, the winner's.
Plugins run between the lookup and ``select`` and may write
``context.sensors``, so where they ran ``select`` probes again; if the
fleet key moved, the round is scored uncached and nothing is stored.

An entry also keeps each candidate's ``NetworkConfiguration`` by position,
built by ``configure`` the first time the candidate wins, wherever
``configure`` is a pure function of what the probe pins: no
``context.network`` (routers follow the live topology) and no
``elect_master`` (the master follows residual energy). It then reads the
members' nodes, pinned by the key, and every other sensor's node and the
sink, pinned beside the configurations (the depleted sensors' nodes, in
dict order, and ``sink_node_id``), which start over when that pin moves.
Elsewhere ``configure`` runs every round.

Exact equivalence with the uncached path is guaranteed by construction
(the miss paths *are* the uncached code: the ``compute`` thunk, and
``score_columns``, whose floats associate over id-sorted members) and
asserted by the property tests in ``tests/test_feasibility_property.py``.

Cache traffic is counted in slots: ``FeasibilityCache.{hits,misses,
invalidations}`` and ``ReconfigEngine.{score_hits,score_misses}``
(candidates scored from compiled columns / candidates compiled);
:meth:`ReconfigEngine.stats` reads them.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.configurator import NetworkConfiguration, configure
from repro.core.feasibility import requirements_signature, sensor_signature
from repro.core.plugins import NetworkContext
from repro.core.selection import (
    Columns, SelectionStrategy, SetScore, check_own_ids, score_columns, select_best,
)
from repro.core.sensors import SensorInfo

SensorSet = FrozenSet[str]
#: ((sensor_id, signature, node_id), ...) over alive sensors, in the sensors
#: dict's order.
FleetKey = Tuple
CacheKey = Tuple
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


class FeasibilityCache:
    """LRU memo of application-feasible candidate lists.

    Keys are structural fingerprints (see the module docstring), so stale
    reads are impossible; ``max_entries`` bounds memory across state/fleet
    churn. The per-sensor memo is validated by *identity* of the
    (immutable-by-convention) reliabilities mapping plus power and node id
    equality — ``SensorInfo.with_energy``/``drained`` preserve all three,
    which is exactly what makes the energy-only probe cheap. Holding the
    mapping reference also pins it, so an identity check can never be
    confused by object-id reuse.
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

    def __len__(self) -> int:
        return len(self._entries)

    # ----------------------------------------------------------------- probe

    def probe(
        self, sensors: Dict[str, SensorInfo]
    ) -> Tuple[FleetKey, List[float], List[Optional[str]]]:
        """One walk of ``sensors``, in the dict's own order.

        Returns the fleet key (each alive sensor's ``(sensor_id,
        signature, node_id)``), each alive sensor's
        ``lifetime_if_active()`` by fleet position, computed in line, then
        ``inf`` (the empty set's one "member"), and each depleted sensor's
        node id. A record under another key than its id is a
        ``ConfigurationError`` naming both.
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
        """Evict the sensor's memo and every entry keyed on it.

        Returns the number of entries dropped. Structural keying
        already guarantees such entries could never be *wrongly* hit; this
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

    def rows_held(self) -> int:
        return sum(len(entry.gathers or ()) for entry in self._entries.values())

    def clear(self) -> None:
        self._entries.clear()
        self._memos.clear()
        self._last = None


class ReconfigEngine:
    """The incremental engine behind ``Milan._run_pipeline``.

    One :class:`FeasibilityCache` whose entries carry both halves of the
    fast path: a warm reconfigure after an energy-only update skips the
    candidate enumeration, the per-set reliability products and, where the
    entry holds the winner's configuration, ``configure``; it pays one
    walk of the sensors plus one ``min`` per candidate.
    """

    def __init__(self):
        self.feasibility = FeasibilityCache()
        self.score_hits = 0
        self.score_misses = 0
        # The last probe's lifetimes and depleted sensors' nodes, which the
        # ``select`` after ``candidates`` ranks and configures on.
        self._lifetimes: List[float] = []
        self._depleted_nodes: List[Optional[str]] = []

    # ------------------------------------------------------------ candidates

    def candidates(
        self,
        sensors: Dict[str, SensorInfo],
        requirements: Dict[str, float],
        policy,
        compute: Callable[[], List[SensorSet]],
    ) -> FeasibilityEntry:
        """The memoized entry for the current fingerprint.

        ``compute`` is the uncached enumeration (Milan's own pipeline
        code), called only on a fingerprint miss — so ``entry.candidates``
        is byte-identical to what the uncached path would have produced.
        Callers must treat it as immutable and hand the entry to ``select``.
        """
        fleet, self._lifetimes, self._depleted_nodes = (
            self.feasibility.probe(sensors))
        key = (
            fleet,
            requirements_signature(requirements),
            policy.exhaustive_limit,
            policy.redundancy,
        )
        entry = self.feasibility.lookup(key)
        if entry is None:
            entry = self.feasibility.store(key, compute())
        return entry

    # --------------------------------------------------------------- scoring

    def select(
        self,
        entry: FeasibilityEntry,
        candidates: Sequence[SensorSet],
        context: NetworkContext,
        requirements: Dict[str, float],
        strategy: SelectionStrategy,
        elect_master: bool = False,
    ) -> Optional[Tuple[SetScore, NetworkConfiguration]]:
        """``select_best`` over ``entry``'s compiled columns, and the
        winner's ``configure``; ``candidates`` are the entry's after
        network filtering, ``requirements`` its lookup's."""
        if not candidates:
            return None
        sensors = context.sensors
        lifetimes, depleted_nodes = self._lifetimes, self._depleted_nodes
        filtered = candidates is not entry.candidates
        if filtered:
            # The plugins ran since the probe, and may have written
            # ``context.sensors``: probe again.
            fleet, lifetimes, depleted_nodes = self.feasibility.probe(sensors)
            if fleet != entry.key[0]:
                # The fingerprint no longer vouches for the compiled columns.
                self.score_misses += len(candidates)
                score = select_best(candidates, sensors, requirements, strategy)
                return score, configure(score.sensor_set, context, elect_master)
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

    # ---------------------------------------------------------- invalidation

    def invalidate_sensor(self, sensor_id: str) -> None:
        """Delta invalidation: drop every entry keyed on ``sensor_id``.

        Wired into ``add_sensor`` (a re-registration may carry new
        reliabilities), ``remove_sensor``, and sensor death.
        """
        self.feasibility.invalidate_sensor(sensor_id)

    def clear(self) -> None:
        self.feasibility.clear()

    # ------------------------------------------------------------ inspection

    def stats(self) -> Dict[str, float]:
        return {
            "feasibility_hits": self.feasibility.hits,
            "feasibility_misses": self.feasibility.misses,
            "feasibility_invalidations": self.feasibility.invalidations,
            "feasibility_entries": len(self.feasibility),
            "score_hits": self.score_hits,
            "score_misses": self.score_misses,
            "score_entries": self.feasibility.rows_held(),
        }
