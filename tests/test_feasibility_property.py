"""Result-identity tests: bitmask feasible-set search vs the reference.

The optimized search in :mod:`repro.core.feasibility` must return *exactly*
what the retained O(2^n) reference implementation returns — same sets, same
order — for every input, including the degenerate corners (empty
requirements, depleted sensors, ``max_size``/``max_sets`` caps). Hypothesis
generates the fleets; a deterministic seeded sweep adds breadth beyond what
one hypothesis run explores. The one-loop ``satisfies`` is held to the
reference's generator form the same way (CI's feasibility exactness fuzz
runs that property at 2000 examples), and the stored ``depleted`` flag to
``energy_j <= 0.0`` on every path that makes a sensor.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core import feasibility_reference
from repro.core.feasibility import (
    combined_reliability,
    minimal_feasible_sets,
    satisfies,
)
from repro.core.feasibility_reference import minimal_feasible_sets_reference
from repro.core.milan import Milan
from repro.core.policy import ApplicationPolicy
from repro.core.requirements import VariableRequirements
from repro.core.reconfig import ReconfigEngine
from repro.core.selection import (
    Columns,
    SetScore,
    balanced,
    max_lifetime,
    max_reliability,
    score_set,
)
from repro.core.sensors import SensorInfo, sensor_from_description
from repro.discovery.description import ServiceDescription
from repro.qos.spec import SupplierQoS

VARIABLES = ["v0", "v1", "v2", "v3"]

_reliability = st.one_of(
    st.floats(min_value=0.05, max_value=0.999),
    st.just(1.0),  # exercise the log(0) = -inf contribution path
)

_measures = st.dictionaries(
    st.sampled_from(VARIABLES), _reliability, min_size=1, max_size=4
)


def _fleet():
    """Up to 12 sensors; some born depleted (they must be ignored)."""
    return st.lists(
        st.tuples(_measures, st.sampled_from([1.0, 1.0, 1.0, 0.0])),
        min_size=0, max_size=12,
    ).map(
        lambda specs: [
            SensorInfo(f"s{i:02d}", measures, active_power_w=0.01, energy_j=energy)
            for i, (measures, energy) in enumerate(specs)
        ]
    )


_requirements = st.dictionaries(
    st.sampled_from(VARIABLES),
    st.floats(min_value=0.1, max_value=0.999),
    min_size=0, max_size=4,
)


class TestBitmaskMatchesReference:
    @given(
        _fleet(),
        _requirements,
        st.sampled_from([None, 0, 1, 2, 3, 12]),
        st.sampled_from([0, 1, 3, 5, 256]),
    )
    @settings(max_examples=300, deadline=None)
    def test_identical_results(self, sensors, requirements, max_size, max_sets):
        expected = minimal_feasible_sets_reference(
            sensors, requirements, max_size=max_size, max_sets=max_sets
        )
        actual = minimal_feasible_sets(
            sensors, requirements, max_size=max_size, max_sets=max_sets
        )
        assert actual == expected

    @given(_fleet(), _requirements)
    @settings(max_examples=200, deadline=None)
    def test_every_returned_set_is_minimal(self, sensors, requirements):
        by_id = {s.sensor_id: s for s in sensors}
        for feasible in minimal_feasible_sets(sensors, requirements):
            members = [by_id[i] for i in feasible]
            assert satisfies(members, requirements)
            for removed in feasible:
                smaller = [by_id[i] for i in feasible if i != removed]
                assert not satisfies(smaller, requirements)


@st.composite
def _group_and_requirements(draw):
    """A sensor group and requirements around what it achieves.

    Groups may be empty, repeat a sensor, or hold sensors that measure no
    required variable (``x`` is never required). Each requirement is 0, 1,
    above 1, any value in between, or at the epsilon edge of the group's
    own reliability: the largest value the reference accepts, or the next
    float above it."""
    pool = draw(st.lists(st.dictionaries(
        st.sampled_from(VARIABLES + ["x"]), _reliability, max_size=3),
        min_size=1, max_size=5))
    sensors = [SensorInfo(f"s{i}", measures) for i, measures in enumerate(pool)]
    group = draw(st.lists(st.sampled_from(sensors), max_size=6))
    requirements = {}
    for variable in draw(st.lists(st.sampled_from(VARIABLES), unique=True,
                                  max_size=4)):
        edge = combined_reliability(group, variable) + 1e-12
        requirements[variable] = draw(st.one_of(
            st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 1.5, edge,
                             math.nextafter(edge, math.inf)]),
            st.floats(min_value=0.0, max_value=1.0),
        ))
    return group, requirements


class TestSatisfiesMatchesReference:
    """The one-loop ``satisfies`` is the reference's generator form, float
    for float: every ``(group, requirements)`` gets the same answer."""

    @given(_group_and_requirements())
    def test_same_answer(self, drawn):
        group, requirements = drawn
        assert satisfies(group, requirements) is feasibility_reference.satisfies(
            group, requirements)


class TestStoredDepletedFlag:
    """``depleted`` is stored once by ``__init__``; every way of making a
    sensor goes through it, so the flag always reads ``energy_j <= 0.0``."""

    _energy = st.one_of(st.just(0.0), st.just(5e-324), st.just(math.inf),
                        st.floats(min_value=0.0, max_value=1e6))

    @staticmethod
    def _consistent(sensor):
        return sensor.depleted is (sensor.energy_j <= 0.0)

    @given(_energy, _energy, st.floats(min_value=0.0, max_value=1e6))
    def test_every_constructor_path(self, energy, other, joules):
        sensor = SensorInfo("s", {"v": 0.9}, energy_j=energy)
        assert self._consistent(sensor)
        assert self._consistent(sensor.with_energy(other))
        assert self._consistent(sensor.drained(joules))
        assert self._consistent(sensor.drained(energy))

    @given(st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
           st.sampled_from(["0", "0.5", "10"]))
    def test_from_description(self, fraction, capacity):
        description = ServiceDescription(
            "s-1", "sensor", "node1:svc",
            qos=SupplierQoS(battery_powered=fraction is not None,
                            battery_fraction=fraction,
                            properties={"var:v": "0.9",
                                        "battery_capacity_j": capacity}),
        )
        assert self._consistent(sensor_from_description(description))


def _last_ids_first(columns):
    """A custom strategy: no tie-break key, just a total order on ids."""
    sets = columns.sets
    return max(range(len(sets)), key=lambda i: sorted(sets[i]))


_twin_selection = st.sampled_from([
    "max_lifetime", "max_reliability", "balanced",
    balanced(0.0), balanced(0.3), balanced(1.0), _last_ids_first,
])


class _SwapOnAccept:
    """A plugin that, once armed, replaces a sensor from inside ``accepts``
    — i.e. after the engine's fingerprint lookup and before its scoring."""

    name = "swap-on-accept"

    def __init__(self):
        self.pending = None

    def accepts(self, sensor_set, context) -> bool:
        if self.pending is not None:
            (slot, measures), self.pending = self.pending, None
            _swap(context.sensors, slot, measures)
        return True


def _swap(sensors, slot, measures) -> None:
    """Same id and energy, new reliabilities and power, no Milan hook."""
    old = sensors.get(f"s{slot}")
    if old is not None:
        sensors[old.sensor_id] = SensorInfo(
            old.sensor_id, measures, active_power_w=0.02, energy_j=old.energy_j)


def _recorded(selection, log):
    """``selection`` as a strategy that also logs the columns it is shown,
    so the twins are compared on all candidates, not the winner."""
    strategy = _twin_policy(selection).selection_strategy()

    def record(columns):
        log.append(columns)
        return strategy(columns)

    return record


def _twin_policy(selection="balanced") -> ApplicationPolicy:
    requirements = (
        VariableRequirements()
        .require("lo", "v0", 0.7)
        .require("lo", "v1", 0.6)
        .require("hi", "v0", 0.9)
        .require("hi", "v1", 0.85)
        .require("hi", "v2", 0.8)
    )
    return ApplicationPolicy(
        "twin", requirements, initial_state="lo", selection=selection
    )


_twin_measures = st.dictionaries(
    st.sampled_from(["v0", "v1", "v2"]),
    st.floats(min_value=0.05, max_value=0.999),
    min_size=1, max_size=3,
)

#: One runtime mutation. Sensor ids are drawn from an 8-slot namespace so
#: adds collide with (re-register over) earlier sensors, removes and energy
#: updates hit both existing and missing ids, and ticks can deplete the
#: small-battery sensors mid-run. ``swap`` writes ``context.sensors``
#: behind Milan's back (as the secure binder does); ``plugin_swap`` does
#: the same from inside the next reconfigure's network filtering.
_twin_op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 7), _twin_measures,
              st.sampled_from([0.0, 0.5, 2.0, 50.0])),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("energy"), st.integers(0, 7),
              st.sampled_from([0.0, 0.1, 1.0, 25.0])),
    st.tuples(st.just("state"), st.sampled_from(["lo", "hi"])),
    st.tuples(st.just("tick"), st.sampled_from([1.0, 30.0, 400.0])),
    st.tuples(st.just("swap"), st.integers(0, 7), _twin_measures),
    st.tuples(st.just("plugin_swap"), st.integers(0, 7), _twin_measures),
)


#: Random adds alone rarely build a fleet that satisfies even ``lo``, and
#: an infeasible round has nothing to score; half the runs therefore start
#: from this fleet (several minimal sets in both states, one small battery).
_twin_base = st.sampled_from([[], [
    ("add", 0, {"v0": 0.9, "v1": 0.5}, 50.0),
    ("add", 1, {"v1": 0.8, "v2": 0.7}, 50.0),
    ("add", 2, {"v0": 0.6, "v2": 0.85}, 2.0),
    ("add", 3, {"v0": 0.75, "v1": 0.7, "v2": 0.5}, 50.0),
]])


def candidate_sets(milan: Milan):
    """Steps 1-2 of the pipeline: feasible sets, then network filtering."""
    return milan._candidate_sets(milan.requirements())[0]


def _twin_apply(milan: Milan, op) -> None:
    kind = op[0]
    if kind == "add":
        _kind, slot, measures, energy = op
        milan.add_sensor(SensorInfo(f"s{slot}", measures,
                                    active_power_w=0.01, energy_j=energy))
    elif kind == "remove":
        milan.remove_sensor(f"s{op[1]}")
    elif kind == "energy":
        milan.update_sensor_energy(f"s{op[1]}", op[2])
    elif kind == "state":
        milan.set_state(op[1])
    elif kind == "swap":
        _swap(milan.context.sensors, op[1], op[2])
    elif kind == "plugin_swap":
        milan.plugins[0].pending = op[1:]
    else:
        milan.advance_time(op[1])


class TestIncrementalEngineMatchesUncached:
    """The reconfiguration engine is invisible: under any interleaving of
    adds, removes, energy updates, state changes, time, and sensor swaps
    it is never told about, and under any selection strategy, the
    incremental Milan must track the uncached one exactly — same
    candidates (also checked against the O(2^n) reference), same chosen
    set, same scores."""

    @given(_twin_selection, _twin_base,
           st.lists(_twin_op, min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_interleavings(self, selection, base, ops):
        cached_saw, plain_saw = [], []
        cached = Milan(_twin_policy(_recorded(selection, cached_saw)),
                       [_SwapOnAccept()], incremental=True)
        plain = Milan(_twin_policy(_recorded(selection, plain_saw)),
                      [_SwapOnAccept()], incremental=False)
        assert cached.engine is not None and plain.engine is None
        for op in base + ops:
            _twin_apply(cached, op)
            _twin_apply(plain, op)
            cached.reconfigure()
            plain.reconfigure()
            assert cached_saw == plain_saw
            assert cached.active_sensor_ids() == plain.active_sensor_ids()
            assert cached.current_score == plain.current_score
            assert cached.current_configuration == plain.current_configuration
            candidates = candidate_sets(cached)
            assert candidates == candidate_sets(plain)
            alive = sorted(
                (s for s in cached.sensors.values() if not s.depleted),
                key=lambda s: s.sensor_id,
            )
            assert candidates == minimal_feasible_sets_reference(
                alive, cached.requirements()
            )


def _tie_key(score):
    """The final tie-break: fewer members, lower power, sorted ids."""
    return (len(score.sensor_set), score.power_w, tuple(sorted(score.sensor_set)))


def _old_strategy(value):
    """The one-line strategies ``_best`` replaced: every candidate keyed,
    the first of equal keys chosen."""
    return lambda scores: min(
        range(len(scores)),
        key=lambda i: (-value(scores, scores[i]),) + _tie_key(scores[i]))


def _old_utility(alpha):
    def utility(scores, score):
        finite = [s.lifetime_s for s in scores if not math.isinf(s.lifetime_s)]
        best_finite = max(finite) if finite else 1.0
        if math.isinf(score.lifetime_s):
            normalized = 1.0
        elif best_finite <= 0:
            normalized = 0.0
        else:
            normalized = score.lifetime_s / best_finite
        return alpha * normalized + (1.0 - alpha) * score.performance
    return utility


class _PlainLookup(ReconfigEngine):
    """The engine without its last-entry probe: every lookup hashes the
    fingerprint and moves the entry it finds to the LRU's end."""

    def lookup(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry


class _RejectSlot:
    """A plugin that filters out every set holding one sensor."""

    name = "reject-slot"

    def __init__(self, slot):
        self.sensor_id = f"s{slot}"

    def accepts(self, sensor_set, context) -> bool:
        return self.sensor_id not in sensor_set


#: A strategy and, for a built-in one, the value it maximizes before the
#: tie-break (``None``: a custom strategy, held to the uncached twin only).
_exact_selection = st.sampled_from([
    ("max_lifetime", lambda _, s: s.lifetime_s),
    ("max_reliability", lambda _, s: s.performance),
    ("balanced", _old_utility(0.7)),  # the named one's alpha
    (balanced(0.0), _old_utility(0.0)),
    (balanced(1.0), _old_utility(1.0)),
    (_last_ids_first, None),
])

#: Small pools, so ties are the common case. A fleet is a few kinds of
#: sensor, each fielded once or twice: the second copy is the same sensor
#: under another id (a tie on everything but ids) or draws half the power
#: from half the energy (the same lifetime and performance, less power, and
#: a later id, so the tie-break and not the enumeration order picks it).
#: Power 0 is a mains sensor (infinite lifetime); 1e-323 J over 4 W is an
#: alive sensor whose lifetime is 0.0, and so is its half-power copy (5e-324
#: J over 2 W), so a round's best finite lifetime can be 0 and tie.
_EXACT_POWERS = [0.0, 1.0, 2.0, 4.0]
_EXACT_ENERGIES = [1e-323, 10.0, 20.0]


def _fielded(kinds):
    """``(measures, power, energy)`` of each kind and of each of its copies."""
    return [(measures, power * scale, energy * scale)
            for measures, power, energy, copies in kinds
            for scale in (1.0,) + copies]


_exact_fleet = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(["v0", "v1", "v2"]),
                        st.sampled_from([0.6, 0.8, 0.95]), min_size=1),
        st.sampled_from(_EXACT_POWERS),
        st.sampled_from(_EXACT_ENERGIES),
        st.sampled_from([(), (1.0,), (0.5,)]),
    ),
    min_size=1, max_size=4,
).map(_fielded)


def test_exact_fleet_can_draw_a_zero_lifetime_tie():
    """Some drawable kind is an alive sensor beside an alive half-power
    copy, both with a lifetime of 0.0 s."""
    ties = []
    for power in _EXACT_POWERS:
        for energy in _EXACT_ENERGIES:
            pair = [SensorInfo(f"s{i}", measures, copy_power, copy_energy)
                    for i, (measures, copy_power, copy_energy) in enumerate(
                        _fielded([({"v0": 0.6}, power, energy, (0.5,))]))]
            if all(not sensor.depleted and sensor.lifetime_if_active() == 0.0
                   for sensor in pair):
                ties.append((power, energy))
    assert ties == [(4.0, 1e-323)]

#: Each sensor's node: ``None``, one node shared with every sensor that
#: drew it, or a node of its own. A round with no network reuses the
#: configurations an entry holds, and they name these nodes: the senders,
#: and as sleepers the nodes of every other sensor, depleted ones included.
_exact_nodes = st.lists(st.sampled_from([None, "hub", "own"]),
                        min_size=8, max_size=8)

#: A sensor depleted from the start, on one of those nodes, fielded in
#: the first free slot (if any) unless ``"absent"``.
_exact_depleted = st.sampled_from(["absent", None, "hub", "own"])

#: What happens between two rounds, four to sixteen times, so that most
#: examples reach a warm hit before a structural op. A ``blip`` is one
#: round in the other state: it stores or hits that state's entry and then
#: asks again for the entry the round before it hit. A ``move`` names
#: one of the first four slots, which most fleets fill.
_exact_op = st.one_of(
    st.tuples(st.just("state")),
    st.tuples(st.just("blip")),
    st.tuples(st.just("tick"), st.sampled_from([3.0, 50.0])),
    st.tuples(st.just("energy"), st.integers(0, 7),
              st.sampled_from([0.0, 4.0, 5e-324])),
    st.tuples(st.just("invalidate"), st.integers(0, 7)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("nothing")),
    st.tuples(st.just("move"), st.integers(0, 3) | st.just("depleted"),
              st.sampled_from([None, "hub", "away"])),
)


def _move(sensors, slot, node_id) -> None:
    """A sensor (or, for ``"depleted"``, every depleted one) on another
    node: the same record but for ``node_id``, its reliabilities mapping,
    power and energy kept, written behind Milan's back."""
    if slot == "depleted":
        moved = [sid for sid, sensor in sensors.items() if sensor.depleted]
    else:
        moved = [f"s{slot}"] if f"s{slot}" in sensors else []
    for sid in moved:
        old = sensors[sid]
        sensors[sid] = SensorInfo(
            sid, old.reliabilities, old.active_power_w, old.energy_j,
            node_id)


class TestEngineRoundsMatchUncached:
    """Round by round, the engine's chosen set and ``current_score`` are
    ``Milan(incremental=False)``'s, and a built-in strategy's choice is
    the lexicographic ``(-value,) + tie_key`` minimum over every candidate
    scored by ``score_set``. The cache's last-entry probe is invisible:
    its hits, misses and entries are those of a cache that hashes every
    lookup, with state flips, deaths, ``invalidate_sensor`` and ``clear()``
    between rounds. The
    configuration is the uncached twin's too, on nodes that are shared,
    distinct or ``None``, and after a sensor, alive or depleted, moves to
    another node with its reliabilities mapping and power."""

    @given(_exact_selection, _exact_fleet, _exact_nodes, _exact_depleted,
           st.sampled_from([None, 0, 3]),
           st.lists(_exact_op, min_size=4, max_size=16))
    @settings(deadline=None)
    def test_rounds(self, selection, fleet, nodes, depleted, reject, ops):
        strategy, value = selection
        plugins = [] if reject is None else [_RejectSlot(reject)]
        cached, model, plain = (
            Milan(_twin_policy(strategy), list(plugins),
                  auto_reconfigure=False, incremental=flag)
            for flag in (True, True, False))
        model.engine = _PlainLookup()
        twins = (cached, model, plain)
        if depleted != "absent" and len(fleet) < len(nodes):
            nodes = nodes[:len(fleet)] + [depleted]
            fleet = fleet + [({"v0": 0.95}, 1.0, 0.0)]
        for i, ((measures, power, energy), node) in enumerate(
                zip(fleet, nodes)):
            node_id = f"node-s{i}" if node == "own" else node
            for milan in twins:
                milan.add_sensor(SensorInfo(f"s{i}", measures, power, energy,
                                            node_id=node_id))
        for op in [("nothing",)] + ops:
            for milan in twins:
                kind, state = op[0], milan.state
                other = "hi" if state == "lo" else "lo"
                if kind == "state":
                    milan.set_state(other)
                elif kind == "blip":
                    milan.set_state(other)
                    milan.reconfigure()
                    milan.set_state(state)
                elif kind == "tick":
                    milan.advance_time(op[1])
                elif kind == "energy":
                    milan.update_sensor_energy(f"s{op[1]}", op[2])
                elif milan.engine is not None and kind == "invalidate":
                    milan.engine.invalidate_sensor(f"s{op[1]}")
                elif milan.engine is not None and kind == "clear":
                    milan.engine.clear()
                elif kind == "move":
                    _move(milan.context.sensors, op[1], op[2])
                milan.reconfigure()
            assert cached.active_sensor_ids() == plain.active_sensor_ids()
            assert cached.current_score == plain.current_score
            assert cached.current_configuration == plain.current_configuration
            assert cached.engine.stats() == model.engine.stats()
            if value is not None and plain.current_score is not None:
                scores = [score_set(sensor_set, plain.sensors,
                                    plain.requirements())
                          for sensor_set in candidate_sets(plain)]
                best = _old_strategy(value)(scores)
                assert plain.current_score == scores[best]


#: Values come from small pools so that ties on the primary value, on
#: size, on power and (duplicated sets) on everything are the common case;
#: the lifetime pools cover all-inf lists and a zero best-finite lifetime.
_score_list = st.sampled_from(
    [[0.0, 1.0, 2.5, math.inf], [math.inf], [0.0], [0.0, math.inf]]
).flatmap(lambda lifetimes: st.lists(
    st.builds(
        SetScore,
        st.frozensets(st.sampled_from("abcd"), max_size=3),
        st.sampled_from(lifetimes),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.sampled_from([0.01, 0.02]),
    ),
    min_size=1, max_size=10,
))


class TestTieBreakOnlyAmongTies:
    """Picking the best primary value first and tie-breaking among the
    candidates that share it is the same lexicographic choice as keying
    every candidate on ``(-value,) + tie_key``."""

    @given(_score_list, st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_builtin_strategies_choose_as_before(self, scores, alpha):
        columns = Columns(*map(list, zip(*scores)), list(map(_tie_key, scores)))
        for new, old in (
            (max_lifetime, _old_strategy(lambda _, s: s.lifetime_s)),
            (max_reliability, _old_strategy(lambda _, s: s.performance)),
            (balanced(alpha), _old_strategy(_old_utility(alpha))),
        ):
            # The same position: among fully equal keys both keep the first.
            assert new(columns) == old(scores)


def test_seeded_sweep_matches_reference():
    """Deterministic breadth: 300 random configurations, all corners on."""
    rng = random.Random(20260806)
    for _ in range(300):
        n = rng.randint(0, 12)
        n_vars = rng.randint(1, 4)
        sensors = []
        for i in range(n):
            measures = {}
            for v in rng.sample(VARIABLES[:n_vars], rng.randint(1, n_vars)):
                measures[v] = 1.0 if rng.random() < 0.1 else rng.uniform(0.05, 0.999)
            energy = 0.0 if rng.random() < 0.15 else 1.0
            sensors.append(
                SensorInfo(f"s{i:02d}", measures, active_power_w=0.01,
                           energy_j=energy)
            )
        requirements = {
            v: rng.uniform(0.1, 0.999)
            for v in rng.sample(VARIABLES[:n_vars], rng.randint(0, n_vars))
        }
        max_size = rng.choice([None, None, 0, 1, 2, 3, n])
        max_sets = rng.choice([0, 1, 3, 5, 256])
        expected = minimal_feasible_sets_reference(
            sensors, requirements, max_size=max_size, max_sets=max_sets
        )
        actual = minimal_feasible_sets(
            sensors, requirements, max_size=max_size, max_sets=max_sets
        )
        assert actual == expected, (
            f"mismatch for n={n} requirements={requirements} "
            f"max_size={max_size} max_sets={max_sets}"
        )
