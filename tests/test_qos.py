"""Tests for the QoS subsystem: benefit, spatial, matching, contracts."""

import pytest

from repro.errors import ConfigurationError
from repro.qos.contract import MIN_OBSERVATIONS, MIN_SUCCESS_RATE, WINDOW, QoSContract
from repro.qos.monitor import DegradationManager, QoSMonitor
from repro.qos.spatial import SpatialPreference, spatial_score
from repro.qos.spec import ConsumerQoS, SupplierQoS, rank_matches, score_match


class TestBenefit:
    def test_constant(self):
        """The time-constraint term is delay-insensitive: full benefit at
        any latency the consumer's ceiling admits."""
        consumer = ConsumerQoS()
        totals = {score_match(SupplierQoS(expected_latency_s=latency),
                              consumer).total
                  for latency in (0.0, 0.01, 1000.0)}
        assert totals == {score_match(SupplierQoS(), consumer).total}


class TestSpatial:
    def test_score_decreases_with_distance(self):
        assert spatial_score(10, 50) > spatial_score(100, 50)

    def test_score_at_zero_distance(self):
        assert spatial_score(0, 50) == 1.0

    def test_preference_cutoff(self):
        pref = SpatialPreference(max_distance_m=100)
        assert pref.feasible(99)
        assert not pref.feasible(101)

    def test_no_cutoff_by_default(self):
        assert SpatialPreference().feasible(1e9)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            spatial_score(10, 0)


class TestScoreMatch:
    def test_perfect_supplier_scores_high(self):
        match = score_match(SupplierQoS(), ConsumerQoS())
        assert match is not None and match.total > 0.9

    def test_reliability_floor_enforced(self):
        assert score_match(
            SupplierQoS(reliability=0.5), ConsumerQoS(min_reliability=0.9)
        ) is None

    def test_availability_floor_enforced(self):
        assert score_match(
            SupplierQoS(availability=0.5), ConsumerQoS(min_availability=0.9)
        ) is None

    def test_latency_ceiling_enforced(self):
        assert score_match(
            SupplierQoS(expected_latency_s=1.0), ConsumerQoS(max_latency_s=0.5)
        ) is None

    def test_encryption_requirement(self):
        assert score_match(
            SupplierQoS(encrypted=False), ConsumerQoS(require_encryption=True)
        ) is None
        assert score_match(
            SupplierQoS(encrypted=True), ConsumerQoS(require_encryption=True)
        ) is not None

    def test_password_requirement(self):
        protected = SupplierQoS(requires_password=True)
        assert score_match(protected, ConsumerQoS()) is None
        assert score_match(protected, ConsumerQoS(password="secret")) is not None

    def test_spatial_cutoff(self):
        consumer = ConsumerQoS(spatial=SpatialPreference(max_distance_m=50))
        assert score_match(SupplierQoS(), consumer, distance_m=60) is None
        assert score_match(SupplierQoS(), consumer, distance_m=40) is not None

    def test_closer_supplier_scores_higher(self):
        consumer = ConsumerQoS(spatial=SpatialPreference(scale_m=30))
        near = score_match(SupplierQoS(), consumer, distance_m=5)
        far = score_match(SupplierQoS(), consumer, distance_m=80)
        assert near.total > far.total

    def test_rank_matches_orders_and_filters(self):
        consumer = ConsumerQoS(min_reliability=0.8)
        ranked = rank_matches(
            [
                ("weak", SupplierQoS(reliability=0.5), None),
                ("good", SupplierQoS(reliability=0.99), None),
                ("ok", SupplierQoS(reliability=0.85), None),
            ],
            consumer,
        )
        assert [key for key, _score in ranked] == ["good", "ok"]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            SupplierQoS(reliability=1.5)
        with pytest.raises(ConfigurationError):
            ConsumerQoS(min_reliability=-0.1)

    def test_equal_scores_order_by_key(self):
        supplier = SupplierQoS(reliability=0.9)
        ranked = rank_matches(
            [("zeta", supplier, None), ("alpha", supplier, None)],
            ConsumerQoS(),
        )
        assert [key for key, _score in ranked] == ["alpha", "zeta"]


class TestContract:
    def test_no_judgment_before_min_observations(self):
        contract = QoSContract("c", "supplier")
        for _ in range(4):
            contract.observe_failure()
        assert not contract.violated

    def test_violation_fires_once(self):
        contract = QoSContract("c", "y")
        events = []
        contract.events.on("violated", lambda c: events.append("violated"))
        for _ in range(10):
            contract.observe_failure()
        assert contract.violated
        assert events == ["violated"]

    def test_repair_event(self):
        contract = QoSContract("c", "y")
        events = []
        contract.events.on("repaired", lambda c: events.append("repaired"))
        for _ in range(10):
            contract.observe_failure()
        for _ in range(20):  # a whole window of successes
            contract.observe(0.01, success=True)
        assert not contract.violated
        assert events == ["repaired"]

    def test_rate_at_the_floor_complies_and_one_more_failure_violates(self):
        contract = QoSContract("c", "y")
        failures = round(WINDOW * (1 - MIN_SUCCESS_RATE))
        for _ in range(WINDOW - failures):
            contract.observe(0.01, success=True)
        for _ in range(failures):
            contract.observe_failure()
        assert contract.success_rate() == pytest.approx(MIN_SUCCESS_RATE)
        assert not contract.violated
        contract.observe_failure()  # pushes the oldest success out
        assert contract.violated

    def test_rate_is_judged_from_min_observations_on(self):
        contract = QoSContract("c", "y")
        for _ in range(MIN_OBSERVATIONS - 2):
            contract.observe(0.01, success=True)
        contract.observe_failure()
        assert contract.success_rate() is None
        contract.observe(0.01, success=True)
        assert contract.success_rate() == pytest.approx(
            (MIN_OBSERVATIONS - 1) / MIN_OBSERVATIONS)

    def test_window_keeps_only_the_latest_observations(self):
        contract = QoSContract("c", "y")
        for _ in range(WINDOW):
            contract.observe_failure()
        for _ in range(WINDOW):
            contract.observe(0.01, success=True)
        assert contract.success_rate() == 1.0
        assert contract.total_observations == 2 * WINDOW

    def test_reset_window_clears_state(self):
        contract = QoSContract("c", "y")
        for _ in range(5):
            contract.observe_failure()
        assert contract.violated
        contract.reset_window()
        assert not contract.violated
        assert contract.success_rate() is None


class TestDegradation:
    def make_manager(self, suppliers, consumer=None):
        consumer = consumer or ConsumerQoS(min_reliability=0.9)
        return DegradationManager(
            consumer, lambda: [(k, q, d) for k, (q, d) in suppliers.items()]
        )

    def test_binds_to_best(self):
        suppliers = {
            "good": (SupplierQoS(reliability=0.99), None),
            "ok": (SupplierQoS(reliability=0.92), None),
        }
        manager = self.make_manager(suppliers)
        assert manager.bind() == "good"
        assert manager.level == 0

    def test_degrades_when_nothing_feasible(self):
        suppliers = {"weak": (SupplierQoS(reliability=0.7), None)}
        manager = self.make_manager(suppliers)
        degraded = []
        manager.events.on("degraded", degraded.append)
        assert manager.bind() == "weak"
        assert manager.level >= 1
        assert degraded

    def test_unsatisfiable_when_no_suppliers(self):
        manager = self.make_manager({})
        outcomes = []
        manager.events.on("unsatisfiable", lambda: outcomes.append("gone"))
        assert manager.bind() is None
        assert outcomes == ["gone"]
        assert manager.delivered_quality() == 0.0

    def test_supplier_loss_triggers_rebind(self):
        suppliers = {
            "a": (SupplierQoS(reliability=0.99), None),
            "b": (SupplierQoS(reliability=0.95), None),
        }
        manager = self.make_manager(suppliers)
        manager.bind()
        del suppliers["a"]
        manager.supplier_lost("a")
        assert manager.current_supplier == "b"
        assert manager.rebinds == 2

    def test_contract_violation_triggers_rebind(self):
        suppliers = {
            "a": (SupplierQoS(reliability=0.99), None),
            "b": (SupplierQoS(reliability=0.95), None),
        }
        manager = self.make_manager(suppliers)
        manager.bind()
        del suppliers["a"]
        for _ in range(20):
            manager.observe(0.01, success=False)
        assert manager.current_supplier == "b"

    def test_try_recover_restores_level(self):
        suppliers = {"weak": (SupplierQoS(reliability=0.7), None)}
        manager = self.make_manager(suppliers)
        manager.bind()
        assert manager.level > 0
        suppliers["strong"] = (SupplierQoS(reliability=0.99), None)
        manager.level = 0
        manager.bind()
        assert manager.level == 0
        assert manager.current_supplier == "strong"


class TestQoSMonitor:
    def test_aggregates_violations(self):
        monitor = QoSMonitor()
        contract = QoSContract("c1", "y")
        monitor.register(contract)
        violations = []
        monitor.events.on("violated", lambda c: violations.append(c.contract_id))
        for _ in range(5):
            contract.observe_failure()
        assert violations == ["c1"]
        assert monitor.violated_contracts() == [contract]

    def test_system_success_rate(self):
        monitor = QoSMonitor()
        good = QoSContract("g", "y")
        bad = QoSContract("b", "z")
        monitor.register(good)
        monitor.register(bad)
        for _ in range(5):
            good.observe(0.01, success=True)
            bad.observe_failure()
        assert monitor.system_success_rate() == pytest.approx(0.5)

    def test_rate_none_without_observations(self):
        assert QoSMonitor().system_success_rate() is None
