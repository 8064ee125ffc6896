"""Tests for the incremental reconfiguration engine.

Covers the structural-fingerprint feasibility cache (hits on energy-only
deltas, misses on structural ones), delta invalidation, the columns
its entries compile, metrics visibility, the ``incremental=False`` escape
hatch, and the binder-style direct-swap hazard the identity-validated
signatures exist for.
"""

import pytest

from repro.core.milan import Milan
from repro.core.policy import health_monitor_policy
from repro.core.reconfig import MAX_ENTRIES, ReconfigEngine
from repro.core.selection import max_lifetime, strategy_by_name
from repro.core.sensors import SensorInfo
from repro.errors import ConfigurationError


def fleet():
    return [
        SensorInfo("bp-cuff", {"blood_pressure": 0.95}, 0.02, 10.0),
        SensorInfo("bp-wrist", {"blood_pressure": 0.75}, 0.008, 10.0),
        SensorInfo("ecg", {"heart_rate": 0.95, "blood_pressure": 0.3}, 0.03, 12.0),
        SensorInfo("ppg", {"heart_rate": 0.8, "oxygen_saturation": 0.9}, 0.01, 8.0),
        SensorInfo("spo2", {"oxygen_saturation": 0.85}, 0.012, 9.0),
        SensorInfo("hr-strap", {"heart_rate": 0.85}, 0.006, 6.0),
    ]


def candidate_sets(milan):
    """Steps 1-2 of the pipeline: feasible sets, then network filtering."""
    return milan._candidate_sets(milan.requirements())[0]


def build(**kwargs):
    milan = Milan(health_monitor_policy(), **kwargs)
    for sensor in fleet():
        milan.add_sensor(sensor)
    return milan


class TestFeasibilityCacheFastPath:
    def test_energy_only_update_hits(self):
        milan = build()
        hits_before = milan.engine.hits
        milan.update_sensor_energy("spo2", 8.9)  # non-depleting drain
        milan.reconfigure()
        assert milan.engine.hits > hits_before

    def test_advance_time_tick_hits(self):
        milan = build()
        milan.reconfigure()
        hits_before = milan.engine.hits
        misses_before = milan.engine.misses
        for _ in range(5):
            milan.advance_time(0.01)  # nobody depletes
            milan.reconfigure()
        assert milan.engine.misses == misses_before
        assert milan.engine.hits >= hits_before + 5

    def test_state_change_misses_then_warms(self):
        milan = build()
        misses_before = milan.engine.misses
        milan.set_state("distress")
        assert milan.engine.misses == misses_before + 1
        milan.set_state("rest")  # rest entry is still cached
        assert milan.engine.misses == misses_before + 1

    def test_score_cache_hits_on_warm_rounds(self):
        milan = build()
        milan.reconfigure()
        before = milan.engine.stats()
        milan.update_sensor_energy("spo2", 8.5)
        milan.reconfigure()
        after = milan.engine.stats()
        assert after["score_misses"] == before["score_misses"]
        assert after["score_entries"] == before["score_entries"]
        assert (after["score_hits"] - before["score_hits"]
                == len(candidate_sets(milan)))

    def test_empty_requirements_score_like_uncached(self):
        # The empty candidate has no member to take a lifetime from.
        cached, plain = build(), build(incremental=False)
        for milan in (cached, plain):
            milan.set_requirements_override(lambda base: {})
            milan.reconfigure()  # cached: the second, warm, round
            assert candidate_sets(milan) == [frozenset()]
            score = milan.current_score
            assert score.lifetime_s == float("inf")
            assert (score.performance, score.power_w) == (1.0, 0)
        assert cached.current_score == plain.current_score
        assert cached.engine.score_hits > 0


class RejectBpCuff:
    name = "no-bp-cuff"

    def accepts(self, sensor_set, context):
        return "bp-cuff" not in sensor_set


#: name -> (extra sensors, plugins, requirements override or None).
ROW_CASES = {
    "plugin-filtered": ((), (RejectBpCuff(),), None),
    "one-member": ((), (), lambda base: {"heart_rate": 0.8}),
    "empty-requirements": ((), (), lambda base: {}),
    "mains-and-zero-power": (
        (SensorInfo("mains-hr", {"heart_rate": 0.9}, 0.05),
         SensorInfo("passive-bp", {"blood_pressure": 0.8}, 0.0, 5.0)),
        (), None),
}


def column_types(columns):
    """Every cell's type, and each tie-break key's fields' types."""
    return ([list(map(type, column)) for column in columns],
            [list(map(type, key)) for key in columns.tie_keys])


class TestRowsScoreLikeUncached:
    """Compiled columns hand the strategy the same ``Columns``, cell for
    cell and type for type, round after round, as scoring every candidate
    from its sensors."""

    def twin(self, case, selection, incremental):
        extra, plugins, override = ROW_CASES[case]
        seen = []
        chosen = strategy_by_name(selection)

        def recording(columns):
            seen.append(columns)
            return chosen(columns)

        policy = health_monitor_policy()
        policy.selection = recording
        milan = Milan(policy, plugins=list(plugins), incremental=incremental,
                      auto_reconfigure=False)
        for sensor in fleet() + list(extra):
            milan.add_sensor(sensor)
        if override is not None:
            milan.set_requirements_override(override, reconfigure=False)
        milan.seen = seen
        return milan

    @pytest.mark.parametrize("selection",
                             ["balanced", "max_lifetime", "max_reliability"])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_rows_score_like_uncached(self, case, selection):
        cached = self.twin(case, selection, incremental=True)
        plain = self.twin(case, selection, incremental=False)
        for milan in (cached, plain):
            for _ in range(4):  # one cold round, then warm ones
                milan.reconfigure()
                assert milan.current_score in map(
                    milan.seen[-1].score, range(len(milan.seen[-1].sets)))
                milan.advance_time(20.0)
        assert len(cached.seen) == 4
        assert cached.seen == plain.seen
        assert list(map(column_types, cached.seen)) == \
            list(map(column_types, plain.seen))
        assert cached.current_score == plain.current_score
        assert cached.active_sensor_ids() == plain.active_sensor_ids()
        stats = cached.engine.stats()
        assert stats["score_hits"] == sum(len(c.sets) for c in cached.seen)
        assert stats["score_misses"] == stats["score_entries"]
        columns = cached.seen[-1]
        if case == "plugin-filtered":
            assert len(columns.sets) < stats["score_entries"]
            assert not any("bp-cuff" in sensor_set for sensor_set in columns.sets)
        elif case == "one-member":
            assert all(len(sensor_set) == 1 for sensor_set in columns.sets)
        elif case == "empty-requirements":
            assert columns == ([frozenset()], [float("inf")], [1.0], [0],
                               [(0, 0, ())])
            assert type(columns.power[0]) is int
        else:
            assert float("inf") in columns.lifetimes
            assert any("passive-bp" in sensor_set for sensor_set in columns.sets)


class TestInvalidation:
    def test_death_invalidates_and_misses(self):
        milan = build()
        milan.reconfigure()
        victim = sorted(milan.active_sensor_ids())[0]
        misses_before = milan.engine.misses
        milan.update_sensor_energy(victim, 0.0)
        assert milan.engine.invalidations > 0
        # The death's own reconfigure ran against the shrunken fleet: miss.
        assert milan.engine.misses > misses_before

    def test_remove_drops_entries(self):
        milan = build()
        milan.reconfigure()
        assert milan.engine.stats()["feasibility_entries"] > 0
        for sensor_id in list(milan.sensors):
            milan.remove_sensor(sensor_id)
        # At most the final empty-fleet entry survives; every entry keyed
        # on a removed sensor is gone.
        assert milan.engine.stats()["feasibility_entries"] <= 1

    def test_advance_time_death_invalidates(self):
        milan = build()
        milan.reconfigure()
        weakest = min(
            (milan.sensors[sid] for sid in milan.active_sensor_ids()),
            key=lambda s: s.lifetime_if_active(),
        )
        milan.advance_time(weakest.lifetime_if_active() + 1.0)
        assert weakest.sensor_id not in milan.active_sensor_ids()
        assert milan.engine.invalidations > 0

    @pytest.mark.parametrize("forget", [
        lambda milan, victim: milan.update_sensor_energy(victim, 0.0),
        lambda milan, victim: milan.remove_sensor(victim),
        lambda milan, victim: milan.engine.clear(),
    ], ids=["death", "remove", "clear"])
    def test_no_term_outlives_its_sensor(self, forget):
        milan = build(auto_reconfigure=False)
        for state in ("distress", "rest"):
            milan.set_state(state)
            milan.reconfigure()
        victim = sorted(milan.active_sensor_ids())[0]
        entries = milan.engine._entries

        def compiled_sets():
            return [sensor_set for entry in entries.values()
                    if entry.gathers is not None
                    for sensor_set in entry.candidates]

        assert any(victim in sensor_set for sensor_set in compiled_sets())
        before = milan.engine.stats()
        forget(milan, victim)
        after = milan.engine.stats()
        assert not any(victim in sensor_set for sensor_set in compiled_sets())
        assert after["feasibility_entries"] < before["feasibility_entries"]
        assert after["score_entries"] < before["score_entries"]

    def test_clear_empties_everything(self):
        milan = build()
        milan.set_state("distress")
        milan.set_state("rest")
        milan.reconfigure()
        assert milan.engine.stats()["feasibility_entries"] > 0
        milan.engine.clear()
        stats = milan.engine.stats()
        assert stats["feasibility_entries"] == 0
        assert stats["score_entries"] == 0


class TestMetricsVisibility:
    def test_stats_shape(self):
        milan = build()
        stats = milan.engine.stats()
        for key in ("feasibility_hits", "feasibility_misses",
                    "feasibility_invalidations", "feasibility_entries",
                    "score_hits", "score_misses", "score_entries"):
            assert key in stats


class TestNonIncremental:
    def test_engine_disabled(self):
        milan = build(incremental=False)
        assert milan.engine is None
        milan.reconfigure()
        assert milan.application_satisfied()

    def test_identical_behavior(self):
        cached, plain = build(), build(incremental=False)
        for action in (
            lambda m: m.set_state("distress"),
            lambda m: m.update_sensor_energy("ecg", 6.0),
            lambda m: m.set_state("rest"),
            lambda m: m.remove_sensor("hr-strap"),
            lambda m: m.update_sensor_energy("ppg", 0.0),
        ):
            action(cached)
            action(plain)
            assert cached.active_sensor_ids() == plain.active_sensor_ids()
            assert cached.current_score == plain.current_score


class TestApplicationSatisfied:
    @pytest.mark.parametrize("kill", [
        lambda milan, active: milan.advance_time(1e6),
        lambda milan, active: [milan.update_sensor_energy(sid, 0.0)
                               for sid in active],
    ], ids=["advance_time", "update_sensor_energy"])
    def test_dead_active_sensors_do_not_count(self, kill):
        milan = build(auto_reconfigure=False)
        milan.reconfigure()
        assert milan.application_satisfied()
        active = sorted(milan.active_sensor_ids())
        kill(milan, active)
        assert all(milan.sensors[sid].depleted for sid in active)
        assert milan.active_sensor_ids() == frozenset(active)
        assert not milan.application_satisfied()


class TestDirectSwapHazard:
    def test_binder_style_swap_is_picked_up(self):
        # The secure binder replaces sensors directly in context.sensors,
        # bypassing add_sensor and its invalidation hook. The structural
        # fingerprint must still notice the changed reliabilities.
        milan = build()
        milan.reconfigure()
        old = milan.sensors["bp-wrist"]
        milan.context.sensors["bp-wrist"] = SensorInfo(
            "bp-wrist", {"blood_pressure": 0.1}, old.active_power_w, old.energy_j
        )
        milan.reconfigure()
        fresh = build(incremental=False)
        fresh.context.sensors["bp-wrist"] = SensorInfo(
            "bp-wrist", {"blood_pressure": 0.1}, old.active_power_w, old.energy_j
        )
        fresh.reconfigure()
        assert milan.active_sensor_ids() == fresh.active_sensor_ids()
        assert milan.current_score == fresh.current_score

    def test_swap_between_lookup_and_select_scores_uncached(self):
        # A plugin replaces a sensor while filtering: the entry looked up a
        # moment ago no longer describes the fleet select() is handed.
        class SwappingPlugin:
            name = "swapper"
            armed = False

            def accepts(self, sensor_set, context):
                if self.armed:
                    context.sensors["bp-cuff"] = SensorInfo(
                        "bp-cuff", {"blood_pressure": 0.8}, 0.5, 10.0)
                return True

        def recording(**kwargs):
            # Every candidate's score, not just the winner's: the swapped
            # sensor need not be in the chosen set.
            seen = []

            def strategy(columns):
                seen.append(columns)
                return max_lifetime(columns)

            policy = health_monitor_policy()
            policy.selection = strategy
            milan = Milan(policy, plugins=[SwappingPlugin()], **kwargs)
            milan.seen = seen
            for sensor in fleet():
                milan.add_sensor(sensor)
            return milan

        def run(milan, armed):
            milan.plugins[0].armed = armed
            milan.context.sensors["bp-cuff"] = fleet()[0]
            milan.reconfigure()
            return milan.seen[-1], milan.current_configuration

        cached, plain = recording(), recording(incremental=False)
        assert run(cached, False) == run(plain, False)
        warm = cached.engine.stats()
        assert run(cached, True) == run(plain, True)  # hit, then swapped
        swapped = cached.engine.stats()
        assert swapped["feasibility_hits"] == warm["feasibility_hits"] + 1
        assert swapped["score_entries"] == warm["score_entries"]
        # ... and the entry's own rows were neither used nor recompiled.
        assert run(cached, False) == run(plain, False)
        assert cached.engine.stats()["score_misses"] == swapped["score_misses"]

    @pytest.mark.parametrize("incremental", [True, False])
    def test_a_record_under_another_key_is_named(self, incremental):
        # The candidates carry ``sensor_id``s, so a sensor the pipeline
        # scores must sit under its own id; this one raised a bare
        # ``KeyError: 'ecg'`` out of scoring. The E10 fleet, as
        # ``exp_milan._build("milan-balanced", 0)`` builds it.
        from repro.experiments.exp_milan import fleet as e10_fleet

        milan = Milan(health_monitor_policy(), incremental=incremental)
        for sensor in e10_fleet():
            milan.add_sensor(sensor)
        milan.reconfigure()
        milan.context.sensors["ecg-alias"] = milan.context.sensors.pop("ecg")
        with pytest.raises(ConfigurationError, match=r"\['ecg-alias'\] "
                           r"holds sensor 'ecg'"):
            milan.reconfigure()


    @pytest.mark.parametrize("incremental", [True, False])
    def test_a_record_under_two_keys_is_named(self, incremental):
        # The engine scored every such round uncached, silently; the
        # uncached path scored the record twice, and ``advance_time``
        # drained one key and left the other stale.
        from repro.experiments.exp_milan import fleet as e10_fleet

        milan = Milan(health_monitor_policy(), incremental=incremental)
        for sensor in e10_fleet():
            milan.add_sensor(sensor)
        milan.reconfigure()
        milan.context.sensors["ecg-alias"] = milan.context.sensors["ecg"]
        with pytest.raises(ConfigurationError, match=r"\['ecg-alias'\] "
                           r"holds sensor 'ecg'"):
            milan.reconfigure()


class TestFeasibilityCacheUnit:
    def test_lru_bounds_entries(self):
        cache = ReconfigEngine()
        sensors = {s.sensor_id: s for s in fleet()}
        base = cache.probe(sensors)[0]
        first = (base, ("req", 0))
        cache.store(first, [])
        assert cache.lookup(first) is not None
        for i in range(1, MAX_ENTRIES + 1):
            cache.store((base, ("req", i)), [])
        assert cache.stats()["feasibility_entries"] == MAX_ENTRIES
        # The oldest entry went, and the last probe does not bring it back.
        assert cache.lookup(first) is None

    def test_signature_memo_revalidates_on_swap(self):
        cache = ReconfigEngine()
        a = SensorInfo("s", {"v": 0.9}, 0.01, 5.0)
        (item_a,), _, _ = cache.probe({"s": a})
        # An identity hit: the drained copy keeps the memo's key item.
        assert cache.probe({"s": a.with_energy(4.0)})[0][0] is item_a
        b = SensorInfo("s", {"v": 0.2}, 0.01, 5.0)
        assert cache.probe({"s": b})[0][0] != item_a
        # The same reliabilities mapping and power on another node.
        moved = SensorInfo("s", a.reliabilities, 0.01, 5.0, node_id="n1")
        assert cache.probe({"s": moved})[0][0] != item_a

    def test_probe_follows_the_fleet_and_rekeys_a_swap(self):
        cache = ReconfigEngine()
        sensors = {s.sensor_id: s for s in fleet()}
        fleet_key, lifetimes, depleted_nodes = cache.probe(sensors)
        assert lifetimes == [
            sensors[item[0]].lifetime_if_active() for item in fleet_key
        ] + [float("inf")]
        assert depleted_nodes == []
        victim = fleet_key[0][0]
        drained = dict(sensors, **{victim: sensors[victim].drained(1.0)})
        drained_key, drained_lifetimes, _ = cache.probe(drained)
        assert drained_key == fleet_key
        assert drained_lifetimes[0] < lifetimes[0]
        swapped = dict(sensors, **{victim: SensorInfo(victim, {"v": 0.5})})
        assert cache.probe(swapped)[0] != fleet_key
        depleted = dict(sensors, **{victim: SensorInfo(
            victim, sensors[victim].reliabilities, node_id="n3", energy_j=0.0)})
        depleted_key, depleted_lifetimes, depleted_nodes = cache.probe(depleted)
        assert depleted_key == fleet_key[1:]
        assert depleted_lifetimes == lifetimes[1:]
        assert depleted_nodes == ["n3"]
        del drained[victim]
        assert cache.probe(drained)[0] == fleet_key[1:]

    def test_invalidate_reports_dropped_count(self):
        cache = ReconfigEngine()
        sensors = {s.sensor_id: s for s in fleet()}
        key = (cache.probe(sensors)[0], ("req",))
        cache.store(key, [frozenset(["ecg"])])
        assert cache.invalidate_sensor("ecg") == 1
        assert cache.lookup(key) is None
