"""Tests for the MiLAN core: states, requirements, feasibility, plugins,
selection, configuration, and the runtime."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.configurator import configure
from repro.core.feasibility import (
    combined_reliability,
    greedy_feasible_set,
    minimal_feasible_sets,
    satisfies,
)
from repro.core.milan import EXHAUSTIVE_LIMIT, Milan
from repro.core.plugins import BluetoothPlugin, NetworkContext, network_feasible
from repro.core.policy import ApplicationPolicy, health_monitor_policy
from repro.core.requirements import VariableRequirements
from repro.core.selection import balanced, max_lifetime, max_reliability, score_set, select_best
from repro.core.sensors import SensorInfo, sensor_from_description
from repro.core.state import StateMachine
from repro.discovery.description import ServiceDescription
from repro.errors import ConfigurationError
from repro.qos.spec import SupplierQoS


def fleet():
    return [
        SensorInfo("bp-cuff", {"blood_pressure": 0.95}, active_power_w=0.02, energy_j=10.0),
        SensorInfo("bp-wrist", {"blood_pressure": 0.75}, active_power_w=0.008, energy_j=10.0),
        SensorInfo("ecg", {"heart_rate": 0.95, "blood_pressure": 0.3},
                   active_power_w=0.03, energy_j=12.0),
        SensorInfo("ppg", {"heart_rate": 0.8, "oxygen_saturation": 0.9},
                   active_power_w=0.01, energy_j=8.0),
        SensorInfo("spo2", {"oxygen_saturation": 0.85}, active_power_w=0.012, energy_j=9.0),
        SensorInfo("hr-strap", {"heart_rate": 0.85}, active_power_w=0.006, energy_j=6.0),
    ]


class TestStateMachine:
    def test_transition_fires_on_predicate(self):
        machine = StateMachine(["rest", "active"], "rest")
        machine.add_transition("rest", "active", lambda r: r.get("hr", 0) > 100)
        assert machine.advance({"hr": 120}) == ("rest", "active")
        assert machine.current == "active"

    def test_no_transition_when_predicate_false(self):
        machine = StateMachine(["a", "b"], "a")
        machine.add_transition("a", "b", lambda r: False)
        assert machine.advance({}) is None

    def test_first_matching_transition_wins(self):
        machine = StateMachine(["a", "b", "c"], "a")
        machine.add_transition("a", "b", lambda r: True)
        machine.add_transition("a", "c", lambda r: True)
        machine.advance({})
        assert machine.current == "b"

    def test_force_emits_event(self):
        machine = StateMachine(["a", "b"], "a")
        changes = []
        machine.events.on("state_changed", lambda old, new: changes.append((old, new)))
        machine.force("b")
        machine.force("b")  # no-op
        assert changes == [("a", "b")]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            StateMachine([], "x")
        with pytest.raises(ConfigurationError):
            StateMachine(["a"], "missing")
        with pytest.raises(ConfigurationError):
            StateMachine(["a", "a"], "a")


class TestRequirements:
    def test_for_state(self):
        reqs = VariableRequirements().require("rest", "hr", 0.6)
        assert reqs.for_state("rest") == {"hr": 0.6}
        assert reqs.for_state("unknown") == {}

    def test_invalid_reliability_rejected(self):
        with pytest.raises(ConfigurationError):
            VariableRequirements().require("s", "v", 0.0)
        with pytest.raises(ConfigurationError):
            VariableRequirements().require("s", "v", 1.1)

    def test_variables_union(self):
        reqs = (VariableRequirements()
                .require("s1", "a", 0.5)
                .require("s2", "b", 0.5))
        assert reqs.variables() == {"a", "b"}


class TestFeasibility:
    def test_combined_reliability_formula(self):
        sensors = [SensorInfo("a", {"v": 0.8}), SensorInfo("b", {"v": 0.5})]
        assert combined_reliability(sensors, "v") == pytest.approx(1 - 0.2 * 0.5)

    def test_non_measuring_sensor_contributes_nothing(self):
        sensors = [SensorInfo("a", {"other": 0.9})]
        assert combined_reliability(sensors, "v") == 0.0

    def test_satisfies(self):
        sensors = [SensorInfo("a", {"v": 0.8})]
        assert satisfies(sensors, {"v": 0.8})
        assert not satisfies(sensors, {"v": 0.9})
        assert satisfies(sensors, {})

    def test_minimal_sets_are_minimal(self):
        sensors = fleet()
        requirements = {"blood_pressure": 0.7, "heart_rate": 0.6}
        sets = minimal_feasible_sets(sensors, requirements)
        assert sets
        by_id = {s.sensor_id: s for s in sensors}
        for feasible in sets:
            assert satisfies([by_id[i] for i in feasible], requirements)
            # Removing any member breaks feasibility (minimality).
            for member in feasible:
                reduced = [by_id[i] for i in feasible if i != member]
                assert not satisfies(reduced, requirements)

    def test_no_duplicate_or_superset_results(self):
        sets = minimal_feasible_sets(fleet(), {"heart_rate": 0.9})
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j:
                    assert not a <= b

    def test_infeasible_requirements_return_empty(self):
        sensors = [SensorInfo("weak", {"v": 0.5})]
        assert minimal_feasible_sets(sensors, {"v": 0.99}) == []

    def test_empty_requirements_need_no_sensors(self):
        assert minimal_feasible_sets(fleet(), {}) == [frozenset()]

    def test_depleted_sensors_excluded(self):
        sensors = [SensorInfo("dead", {"v": 0.9}, energy_j=0.0)]
        assert minimal_feasible_sets(sensors, {"v": 0.8}) == []

    def test_greedy_finds_feasible_set(self):
        sensors = fleet()
        requirements = {"blood_pressure": 0.95, "heart_rate": 0.9,
                        "oxygen_saturation": 0.9}
        chosen = greedy_feasible_set(sensors, requirements)
        assert chosen is not None
        by_id = {s.sensor_id: s for s in sensors}
        assert satisfies([by_id[i] for i in chosen], requirements)

    def test_greedy_returns_none_when_infeasible(self):
        assert greedy_feasible_set([SensorInfo("weak", {"v": 0.1})], {"v": 0.99}) is None

    def test_max_sets_cap(self):
        many = [SensorInfo(f"s{i}", {"v": 0.9}) for i in range(10)]
        sets = minimal_feasible_sets(many, {"v": 0.8}, max_sets=4)
        assert len(sets) == 4


class TestPlugins:
    def context(self, sensors=None):
        sensors = sensors if sensors is not None else fleet()
        return NetworkContext(sensors={s.sensor_id: s for s in sensors})

    def test_bluetooth_caps_set_size(self):
        plugin = BluetoothPlugin(max_active_slaves=2)
        context = self.context()
        assert plugin.accepts(frozenset(["a", "b"]), context)
        assert not plugin.accepts(frozenset(["a", "b", "c"]), context)

    def test_network_feasible_composition(self):
        sets = [frozenset(["a"]), frozenset(["a", "b", "c"])]
        plugin = BluetoothPlugin(max_active_slaves=2)
        assert network_feasible(sets, [plugin], self.context()) == [frozenset(["a"])]


class TestSelection:
    def test_score_set_lifetime_is_weakest_member(self):
        sensors = {
            "short": SensorInfo("short", {"v": 0.9}, active_power_w=1.0, energy_j=5.0),
            "long": SensorInfo("long", {"v": 0.9}, active_power_w=1.0, energy_j=50.0),
        }
        score = score_set(frozenset(["short", "long"]), sensors, {"v": 0.8})
        assert score.lifetime_s == pytest.approx(5.0)

    def test_max_lifetime_prefers_durable_set(self):
        sensors = {
            "fragile": SensorInfo("fragile", {"v": 0.99}, active_power_w=1.0, energy_j=1.0),
            "durable": SensorInfo("durable", {"v": 0.9}, active_power_w=1.0, energy_j=100.0),
        }
        chosen = select_best(
            [frozenset(["fragile"]), frozenset(["durable"])],
            sensors, {"v": 0.8}, max_lifetime,
        )
        assert chosen.sensor_set == frozenset(["durable"])

    def test_max_reliability_prefers_accurate_set(self):
        sensors = {
            "fragile": SensorInfo("fragile", {"v": 0.99}, active_power_w=1.0, energy_j=1.0),
            "durable": SensorInfo("durable", {"v": 0.9}, active_power_w=1.0, energy_j=100.0),
        }
        chosen = select_best(
            [frozenset(["fragile"]), frozenset(["durable"])],
            sensors, {"v": 0.8}, max_reliability,
        )
        assert chosen.sensor_set == frozenset(["fragile"])

    def test_balanced_interpolates(self):
        sensors = {
            "fragile": SensorInfo("fragile", {"v": 0.99}, active_power_w=1.0, energy_j=1.0),
            "durable": SensorInfo("durable", {"v": 0.9}, active_power_w=1.0, energy_j=100.0),
        }
        candidates = [frozenset(["fragile"]), frozenset(["durable"])]
        lifetime_choice = select_best(candidates, sensors, {"v": 0.8}, balanced(1.0))
        reliability_choice = select_best(candidates, sensors, {"v": 0.8}, balanced(0.0))
        assert lifetime_choice.sensor_set == frozenset(["durable"])
        assert reliability_choice.sensor_set == frozenset(["fragile"])

    def test_empty_candidates_returns_none(self):
        assert select_best([], {}, {}) is None

    def test_tie_break_prefers_smaller_cheaper(self):
        sensors = {
            "a": SensorInfo("a", {"v": 0.9}, active_power_w=1.0, energy_j=10.0),
            "b": SensorInfo("b", {"v": 0.9}, active_power_w=1.0, energy_j=10.0),
        }
        chosen = select_best(
            [frozenset(["a", "b"]), frozenset(["a"])], sensors, {"v": 0.8},
            max_lifetime,
        )
        assert chosen.sensor_set == frozenset(["a"])

    def test_score_floats_do_not_depend_on_hash_seed(self):
        # The miss product and the power sum associate in member order, and
        # a frozenset of str iterates in per-process hash order. Print, as
        # hex, the terms of every candidate in every state of the E10
        # fleet — from score_set and from the columns the engine compiled
        # — under different seeds.
        code = """if True:
            from repro.core.milan import Milan
            from repro.core.policy import health_monitor_policy
            from repro.core.selection import score_set
            from repro.experiments.exp_milan import fleet
            policy = health_monitor_policy()
            strategy = policy.selection_strategy()
            seen = []
            policy.selection = lambda columns: seen.extend(
                map(columns.score, range(len(columns.sets)))) or strategy(columns)
            milan = Milan(policy)
            for sensor in fleet():
                milan.add_sensor(sensor)
            for state in ("rest", "exercise", "distress"):
                milan.set_state(state)
                milan.reconfigure()
                requirements = milan.requirements()
                seen.extend(score_set(sensor_set, milan.sensors, requirements)
                            for sensor_set in milan._candidate_sets(requirements)[0])
            for score in seen:
                print(sorted(score.sensor_set), score.performance.hex(),
                      score.power_w.hex())
        """
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
            outputs.add(subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                timeout=60, env=env, check=True,
            ).stdout)
        assert len(outputs) == 1
        assert outputs.pop().count("\n") > 3 * 31


class TestConfigurator:
    def test_roles_derived_from_topology(self):
        from repro.netsim import topology

        network = topology.linear_chain(4, spacing=60)
        sensors = {"s": SensorInfo("s", {"v": 0.9}, node_id="n3")}
        context = NetworkContext(sensors=sensors, network=network, sink_node_id="n0")
        config = configure(frozenset(["s"]), context)
        assert config.senders == frozenset(["n3"])
        assert config.routers == frozenset(["n1", "n2"])
        assert config.master not in ("n1", "n3")

    def test_master_election_prefers_fresh_battery(self):
        sensors = {
            "a": SensorInfo("a", {"v": 0.9}, node_id="node_a", energy_j=1.0),
            "b": SensorInfo("b", {"v": 0.9}, node_id="node_b", energy_j=9.0),
        }
        context = NetworkContext(sensors=sensors)
        config = configure(frozenset(["a", "b"]), context, elect_master=True)
        assert config.master == "node_b"

    def test_unselected_nodes_sleep(self):
        from repro.netsim import topology

        network = topology.star(3, radius=40)
        sensors = {
            "s0": SensorInfo("s0", {"v": 0.9}, node_id="leaf0"),
            "s1": SensorInfo("s1", {"v": 0.9}, node_id="leaf1"),
        }
        context = NetworkContext(sensors=sensors, network=network,
                                 sink_node_id="hub")
        config = configure(frozenset(["s0"]), context)
        assert "leaf1" in config.sleepers
        assert "leaf2" in config.sleepers


class TestSensorInfo:
    def test_lifetime_if_active(self):
        sensor = SensorInfo("s", {"v": 0.9}, active_power_w=0.5, energy_j=10.0)
        assert sensor.lifetime_if_active() == pytest.approx(20.0)

    def test_mains_sensor_lives_forever(self):
        sensor = SensorInfo("s", {"v": 0.9}, active_power_w=0.5)
        assert sensor.lifetime_if_active() == float("inf")

    def test_drained_is_immutable_update(self):
        sensor = SensorInfo("s", {"v": 0.9}, energy_j=5.0)
        drained = sensor.drained(2.0)
        assert drained.energy_j == 3.0
        assert sensor.energy_j == 5.0

    def test_invalid_reliability_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorInfo("s", {"v": 1.5})

    @pytest.mark.parametrize("field", ["active_power_w", "energy_j"])
    def test_nan_power_and_energy_rejected(self, field):
        # NaN slips past `< 0`: a NaN-energy sensor would count as alive
        # with a NaN lifetime, and `min` over NaN depends on order.
        with pytest.raises(ConfigurationError):
            SensorInfo("s", {"v": 0.9}, **{field: float("nan")})
        with pytest.raises(ConfigurationError):
            SensorInfo("s", {"v": 0.9}).with_energy(float("nan"))

    def test_infinite_power_rejected(self):
        # A mains sensor drawing infinite power would live inf / inf = NaN.
        with pytest.raises(ConfigurationError):
            SensorInfo("s", {"v": 0.9}, active_power_w=float("inf"))

    @pytest.mark.parametrize(
        "prop,value",
        [("power_w", "nan"), ("battery_capacity_j", "nan"), ("power_w", "inf")],
    )
    def test_nan_description_rejected(self, prop, value):
        properties = {"var:v": "0.9", "power_w": "0.02", "battery_capacity_j": "10"}
        properties[prop] = value
        description = ServiceDescription(
            "s-1", "sensor", "node1:svc",
            qos=SupplierQoS(battery_powered=True, battery_fraction=0.5,
                            properties=properties),
        )
        with pytest.raises(ConfigurationError):
            sensor_from_description(description)

    def test_mains_energy_still_allowed(self):
        sensor = SensorInfo("s", {"v": 0.9}, active_power_w=0.0, energy_j=float("inf"))
        assert not sensor.depleted
        assert sensor.lifetime_if_active() == float("inf")

    def test_from_description(self):
        description = ServiceDescription(
            "bp-1", "bp-sensor", "node3:svc",
            qos=SupplierQoS(
                battery_powered=True, battery_fraction=0.5,
                properties={"var:blood_pressure": "0.9", "var:heart_rate": "0.4",
                            "power_w": "0.02", "battery_capacity_j": "10"},
            ),
        )
        sensor = sensor_from_description(description)
        assert sensor.sensor_id == "bp-1"
        assert sensor.reliabilities == {"blood_pressure": 0.9, "heart_rate": 0.4}
        assert sensor.active_power_w == pytest.approx(0.02)
        assert sensor.energy_j == pytest.approx(5.0)
        assert sensor.node_id == "node3"


class TestMilanRuntime:
    def build(self, **kwargs):
        milan = Milan(health_monitor_policy(), **kwargs)
        for sensor in fleet():
            milan.add_sensor(sensor)
        return milan

    def test_initial_configuration_satisfies_rest(self):
        milan = self.build()
        assert milan.state == "rest"
        assert milan.application_satisfied()
        assert len(milan.active_sensor_ids()) <= 3

    def test_state_escalation_grows_set(self):
        milan = self.build()
        rest_size = len(milan.active_sensor_ids())
        milan.observe({"blood_pressure": 190})
        assert milan.state == "distress"
        assert milan.application_satisfied()
        assert len(milan.active_sensor_ids()) > rest_size

    def test_recovery_shrinks_set(self):
        milan = self.build()
        milan.observe({"blood_pressure": 190})
        distress_size = len(milan.active_sensor_ids())
        milan.observe({"blood_pressure": 120})
        assert milan.state == "rest"
        assert len(milan.active_sensor_ids()) < distress_size

    def test_sensor_loss_triggers_reconfiguration(self):
        milan = self.build()
        before = milan.reconfigurations
        active = next(iter(milan.active_sensor_ids()))
        milan.remove_sensor(active)
        assert milan.reconfigurations > before
        assert milan.application_satisfied()

    def test_plug_and_play_new_sensor_usable(self):
        milan = Milan(health_monitor_policy())
        milan.add_sensor(SensorInfo("only-bp", {"blood_pressure": 0.9},
                                    active_power_w=0.01, energy_j=1.0))
        assert not milan.application_satisfied()  # heart rate missing
        milan.add_sensor(SensorInfo("late-hr", {"heart_rate": 0.9},
                                    active_power_w=0.01, energy_j=1.0))
        assert milan.application_satisfied()

    def test_energy_death_reconfigures(self):
        milan = self.build()
        active = sorted(milan.active_sensor_ids())
        milan.update_sensor_energy(active[0], 0.0)
        assert active[0] not in milan.active_sensor_ids()
        assert milan.application_satisfied()

    def test_infeasible_state_degrades_gracefully(self):
        milan = Milan(health_monitor_policy())
        milan.add_sensor(SensorInfo("weak-bp", {"blood_pressure": 0.75},
                                    active_power_w=0.01, energy_j=1.0))
        milan.add_sensor(SensorInfo("weak-hr", {"heart_rate": 0.65},
                                    active_power_w=0.01, energy_j=1.0))
        infeasible = []
        milan.events.on("infeasible", infeasible.append)
        milan.set_state("distress")
        assert infeasible == ["distress"]
        # Best effort: everything useful is on.
        assert milan.active_sensor_ids() == frozenset(["weak-bp", "weak-hr"])

    def test_bluetooth_plugin_respected(self):
        milan = Milan(health_monitor_policy(),
                      plugins=[BluetoothPlugin(max_active_slaves=7)])
        for sensor in fleet():
            milan.add_sensor(sensor)
        milan.set_state("distress")
        assert len(milan.active_sensor_ids()) <= 7

    def test_advance_time_drains_only_active(self):
        milan = self.build()
        active = set(milan.active_sensor_ids())
        idle = set(milan.sensors) - active
        before = {sid: milan.sensors[sid].energy_j for sid in milan.sensors}
        milan.advance_time(10.0)
        for sid in active:
            assert milan.sensors[sid].energy_j < before[sid]
        for sid in idle:
            assert milan.sensors[sid].energy_j == before[sid]

    def test_milan_outlives_all_on_baseline(self):
        def run_lifetime(all_on):
            milan = Milan(health_monitor_policy())
            for sensor in fleet():
                milan.add_sensor(sensor)
            if all_on:
                from repro.core.configurator import NetworkConfiguration

                milan.auto_reconfigure = False
                milan.current_configuration = NetworkConfiguration(
                    frozenset(milan.sensors), frozenset(), frozenset(), None,
                    frozenset(),
                )
            elapsed = 0.0
            while elapsed < 100000:
                alive = [s for s in milan.sensors.values() if not s.depleted]
                if not satisfies(alive, milan.requirements()):
                    break
                if not all_on and not milan.application_satisfied():
                    milan.reconfigure()
                milan.advance_time(5.0)
                elapsed += 5.0
            return elapsed

        assert run_lifetime(all_on=False) > 1.5 * run_lifetime(all_on=True)


class TestEnumerationLimit:
    def test_exhaustive_up_to_the_limit_then_greedy(self):
        policy = ApplicationPolicy(
            "limit", VariableRequirements().require("on", "v", 0.8),
            initial_state="on")
        milan = Milan(policy)

        def add(i):
            milan.add_sensor(SensorInfo(f"s{i:02d}", {"v": 0.9},
                                        active_power_w=0.01, energy_j=10.0))

        for i in range(EXHAUSTIVE_LIMIT):
            add(i)
        requirements = milan.requirements()
        # Every sensor alone is a minimal feasible set.
        assert len(milan._application_candidates(requirements)) == EXHAUSTIVE_LIMIT
        add(EXHAUSTIVE_LIMIT)
        (greedy,) = milan._application_candidates(requirements)
        assert len(greedy) == 1
        assert milan.application_satisfied()


class TestMilanReentrancy:
    """Mutators must judge "was it active" against the pre-mutation set.

    ``remove_sensor`` emits ``sensor_removed`` before its own
    was-it-active bookkeeping runs; a listener that reconfigures rebuilds
    the active set mid-frame, and an after-the-fact membership check would
    then (wrongly) conclude the removed sensor was never active.
    """

    def build(self):
        milan = Milan(health_monitor_policy())
        for sensor in fleet():
            milan.add_sensor(sensor)
        return milan

    def test_remove_reconfigures_despite_reentrant_listener(self):
        milan = self.build()
        milan.events.on("sensor_removed", lambda sid: milan.reconfigure())
        victim = sorted(milan.active_sensor_ids())[0]
        before = milan.reconfigurations
        milan.remove_sensor(victim)
        # Both the listener's reconfigure AND the removal's own must run.
        assert milan.reconfigurations == before + 2
        assert victim not in milan.active_sensor_ids()
        assert milan.application_satisfied()

    def test_energy_death_of_idle_sensor_does_not_reconfigure(self):
        milan = self.build()
        idle = sorted(set(milan.sensors) - set(milan.active_sensor_ids()))[0]
        before = milan.reconfigurations
        milan.update_sensor_energy(idle, 0.0)
        assert milan.reconfigurations == before
        assert milan.sensors[idle].depleted

    def test_advance_time_reuses_sorted_snapshot(self):
        milan = self.build()
        milan.advance_time(0.01)
        snapshot = milan._active_sorted
        for _ in range(3):
            milan.advance_time(0.01)  # same configuration: no re-sort
        assert milan._active_sorted is snapshot
        milan.reconfigure()  # new configuration object: snapshot refreshes
        milan.advance_time(0.01)
        assert milan._active_sorted == tuple(sorted(milan.active_sensor_ids()))


class TestPolicy:
    def test_policy_validates_initial_state(self):
        with pytest.raises(ConfigurationError):
            ApplicationPolicy(
                "p", VariableRequirements().require("s", "v", 0.5),
                initial_state="other",
            )

    def test_strategy_by_name(self):
        policy = ApplicationPolicy(
            "p", VariableRequirements().require("s", "v", 0.5),
            initial_state="s", selection="max_reliability",
        )
        assert policy.selection_strategy() is not None

    def test_unknown_strategy_rejected(self):
        policy = ApplicationPolicy(
            "p", VariableRequirements().require("s", "v", 0.5),
            initial_state="s", selection="quantum",
        )
        with pytest.raises(ConfigurationError):
            policy.selection_strategy()

    def test_health_monitor_policy_transitions(self):
        machine = health_monitor_policy().build_state_machine()
        assert machine.current == "rest"
        machine.advance({"heart_rate": 120})
        assert machine.current == "exercise"
        machine.advance({"blood_pressure": 200})
        assert machine.current == "distress"
        machine.advance({"blood_pressure": 120})
        assert machine.current == "rest"
