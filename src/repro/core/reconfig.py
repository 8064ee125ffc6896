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

where the fleet key is the tuple of ``(sensor_id, sensor_signature)`` over
non-depleted sensors, in one walk of the sensors dict in its own order (the
enumeration id-sorts the fleet itself, so a reordered fleet is a miss, never
a different list). The fingerprint is recomputed on every lookup (cheap:
per sensor, a stored ``depleted`` read and, if alive, an identity-validated
signature memo probed in line, with no call), so correctness never depends
on callers announcing changes: a sensor death, removal, addition, or even
a direct ``context.sensors[sid] = ...`` swap (as the secure binder does)
lands on a different key and misses. Explicit *delta invalidation*
(:meth:`ReconfigEngine.invalidate_sensor`, wired into ``add_sensor`` /
``remove_sensor`` / sensor death) is hygiene on top: it evicts entries that
can never be hit again and keeps the cache honest about memory.

:class:`ReconfigEngine` adds the scoring half of the fast path. An entry's
first ``select`` compiles its energy-independent columns once: each
candidate's members as positions in the entry's fleet (an
``itemgetter``), and the ``performance``, ``power`` and tie-break-key
columns of ``score_columns``. The fleet key pins every alive sensor's
signature, which is all those columns depend on, so the fingerprint
validates them and the one cache bounds and evicts them. A warm
energy-only ``reconfigure()`` computes only what changes: a fingerprint
probe (the entry the cache last returned is re-probed by equality, with
no hash and no LRU move), plugin filtering, one pass over the entry's
fleet (:meth:`FeasibilityCache.lifetimes`: the signature memo re-checked
and each ``lifetime_if_active()`` divided in line, by fleet position,
*after* the plugins ran), the lifetime column as ``min(gather(lifetimes))``
per candidate, the strategy's pick over the columns (the contract of
:mod:`repro.core.selection`), and one :class:`SetScore`, the winner's. A
sensor swapped or removed since the probe (a plugin or listener touched
``context.sensors`` mid-pipeline) fails that pass: the round is scored
uncached and nothing is stored; a record under another key than its id
fails it for good, and is named in a ``ConfigurationError``.

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

from repro.core.feasibility import requirements_signature, sensor_signature
from repro.core.selection import (
    Columns, SelectionStrategy, SetScore, check_own_ids, score_columns, select_best,
)
from repro.core.sensors import SensorInfo

SensorSet = FrozenSet[str]
Signature = Tuple
#: ((sensor_id, signature), ...) over alive sensors, in the sensors dict's order.
FleetKey = Tuple
CacheKey = Tuple
_INF = float("inf")


class FeasibilityEntry:
    """One fingerprint's candidates and their compiled columns."""

    __slots__ = ("key", "candidates", "gathers", "performance", "power",
                 "tie_keys")

    def __init__(self, key: CacheKey, candidates: List[SensorSet]):
        self.key = key
        self.candidates = candidates
        #: Compiled by the entry's first ``select``, one item per candidate:
        #: an ``itemgetter`` of its members' positions in the fleet (in
        #: :meth:`FeasibilityCache.lifetimes`), and the energy-independent
        #: columns of :func:`~repro.core.selection.score_columns`.
        self.gathers: Optional[List[Callable]] = None
        self.performance: List[float] = []
        self.power: List[float] = []
        self.tie_keys: List[Tuple] = []


class FeasibilityCache:
    """LRU memo of application-feasible candidate lists.

    Keys are structural fingerprints (see the module docstring), so stale
    reads are impossible; ``max_entries`` bounds memory across state/fleet
    churn. The per-sensor signature memo is validated by *identity* of the
    (immutable-by-convention) reliabilities mapping plus power equality —
    ``SensorInfo.with_energy``/``drained`` preserve both, which is exactly
    what makes the energy-only fingerprint probe cheap. Holding the mapping
    reference also pins it, so an identity check can never be confused by
    object-id reuse.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, FeasibilityEntry]" = OrderedDict()
        self._signatures: Dict[str, Tuple[Dict[str, float], float, Signature]] = {}
        self._last: Optional[FeasibilityEntry] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------ signatures

    def signature_of(self, sensor: SensorInfo) -> Signature:
        cached = self._signatures.get(sensor.sensor_id)
        if (
            cached is not None
            and cached[0] is sensor.reliabilities
            and cached[1] == sensor.active_power_w
        ):
            return cached[2]
        signature = sensor_signature(sensor)
        self._signatures[sensor.sensor_id] = (
            sensor.reliabilities, sensor.active_power_w, signature,
        )
        return signature

    def fleet_key(self, sensors: Dict[str, SensorInfo]) -> FleetKey:
        # The signature_of memo rule, checked in line; signature_of itself
        # runs only on a memo miss. Dict order, not id order: ``compute``
        # id-sorts the fleet itself, so a reordered fleet is only a miss,
        # never a different list.
        memos = self._signatures
        key = []
        for sid, sensor in sensors.items():
            if sensor.depleted:
                continue
            memo = memos.get(sensor.sensor_id)
            if (
                memo is None
                or memo[0] is not sensor.reliabilities
                or memo[1] != sensor.active_power_w
            ):
                key.append((sid, self.signature_of(sensor)))
            else:
                key.append((sid, memo[2]))
        return tuple(key)

    def lifetimes(
        self, fleet: FleetKey, sensors: Dict[str, SensorInfo]
    ) -> Optional[List[float]]:
        """Each ``fleet`` sensor's ``lifetime_if_active()``, computed in
        line, by fleet position, then ``inf`` (the empty set's one "member").

        ``None`` if a sensor was swapped or removed since ``fleet`` was
        keyed: the :meth:`signature_of` memo rule, checked in line, plus the
        memo's signature against the key's.
        """
        memos = self._signatures
        lifetimes: List[float] = []
        for sensor_id, signature in fleet:
            sensor = sensors.get(sensor_id)
            memo = memos.get(sensor_id)
            if (
                sensor is None
                or memo is None
                or memo[0] is not sensor.reliabilities
                or memo[1] != sensor.active_power_w
                or memo[2] != signature
            ):
                return None
            power = sensor.active_power_w
            lifetimes.append(_INF if power == 0 else sensor.energy_j / power)
        lifetimes.append(_INF)
        return lifetimes

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
        """Evict the sensor's signature memo and every entry keyed on it.

        Returns the number of entries dropped. Structural keying
        already guarantees such entries could never be *wrongly* hit; this
        reclaims their memory the moment they become unreachable.
        """
        self._signatures.pop(sensor_id, None)
        stale = [
            key for key in self._entries
            if any(sid == sensor_id for sid, _sig in key[0])
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
        self._signatures.clear()
        self._last = None


class ReconfigEngine:
    """The incremental engine behind ``Milan._run_pipeline``.

    One :class:`FeasibilityCache` whose entries carry both halves of the
    fast path: a warm reconfigure after an energy-only update skips the
    candidate enumeration and the per-set reliability products, and pays
    one pass over the alive sensors plus one ``min`` per candidate.
    """

    def __init__(self):
        self.feasibility = FeasibilityCache()
        self.score_hits = 0
        self.score_misses = 0

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
        key = (
            self.feasibility.fleet_key(sensors),
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
        sensors: Dict[str, SensorInfo],
        requirements: Dict[str, float],
        strategy: SelectionStrategy,
    ) -> Optional[SetScore]:
        """``select_best`` over ``entry``'s compiled columns; ``candidates``
        are the entry's after network filtering, ``requirements`` its
        lookup's."""
        if not candidates:
            return None
        fleet_lifetimes = self.feasibility.lifetimes(entry.key[0], sensors)
        if fleet_lifetimes is None:
            # Swapped or removed since the lookup: the fingerprint no
            # longer vouches for the compiled columns.
            check_own_ids(sensors)
            self.score_misses += len(candidates)
            return select_best(candidates, sensors, requirements, strategy)
        if entry.gathers is None:
            self._compile(entry, sensors, requirements)
        columns = Columns(
            entry.candidates,
            [min(gather(fleet_lifetimes)) for gather in entry.gathers],
            entry.performance, entry.power, entry.tie_keys,
        )
        if candidates is not entry.candidates:  # the plugins dropped some
            position = dict(zip(entry.candidates, range(len(entry.candidates))))
            kept = [position[sensor_set] for sensor_set in candidates]
            columns = Columns(*([column[i] for i in kept] for column in columns))
        self.score_hits += len(candidates)
        return columns.score(strategy(columns))

    def _compile(
        self,
        entry: FeasibilityEntry,
        sensors: Dict[str, SensorInfo],
        requirements: Dict[str, float],
    ) -> None:
        """Each candidate's members as fleet positions, and its
        energy-independent columns exactly as ``score_columns`` makes them."""
        fleet = entry.key[0]
        position = {sensor_id: i for i, (sensor_id, _sig) in enumerate(fleet)}
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
