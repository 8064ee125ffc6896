"""Tests for repro.netsim.energy."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim.energy import (
    E_ELEC,
    EPS_AMP,
    PATH_LOSS_EXPONENT,
    Battery,
    RadioEnergyModel,
    mains_battery,
)
from tests.netsim_fixtures import recharge


class TestRadioEnergyModel:
    def test_tx_cost_grows_with_distance(self):
        model = RadioEnergyModel()
        assert model.tx_cost(1000, 100.0) > model.tx_cost(1000, 10.0)

    def test_tx_cost_grows_with_size(self):
        model = RadioEnergyModel()
        assert model.tx_cost(2000, 10.0) == pytest.approx(2 * model.tx_cost(1000, 10.0))

    def test_tx_cost_at_zero_distance_is_electronics_only(self):
        model = RadioEnergyModel()
        assert model.tx_cost(1000, 0.0) == pytest.approx(E_ELEC * 1000)

    @pytest.mark.parametrize("distance", [1.0, 25.0, 80.0])
    def test_tx_cost_is_the_first_order_model(self, distance):
        assert RadioEnergyModel().tx_cost(1000, distance) == pytest.approx(
            E_ELEC * 1000 + EPS_AMP * 1000 * distance**PATH_LOSS_EXPONENT)

    def test_doubling_distance_scales_amplifier_by_path_loss_exponent(self):
        model = RadioEnergyModel()

        def amplifier(distance):
            return model.tx_cost(1000, distance) - model.rx_cost(1000)

        assert amplifier(60.0) / amplifier(30.0) == pytest.approx(
            2.0**PATH_LOSS_EXPONENT)

    def test_rx_cost_is_distance_independent(self):
        model = RadioEnergyModel()
        assert model.rx_cost(1000) == pytest.approx(E_ELEC * 1000)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioEnergyModel().tx_cost(-1, 10.0)
        with pytest.raises(ConfigurationError):
            RadioEnergyModel().rx_cost(-1)


class TestBattery:
    def test_starts_full(self):
        battery = Battery(capacity=2.0)
        assert battery.remaining == 2.0
        assert battery.fraction_remaining == 1.0

    def test_drain_reduces_charge(self):
        battery = Battery(capacity=2.0)
        assert battery.drain(0.5)
        assert battery.remaining == pytest.approx(1.5)

    def test_drain_to_zero_depletes(self):
        battery = Battery(capacity=1.0)
        assert not battery.drain(1.5)
        assert battery.depleted
        assert battery.remaining == 0.0

    def test_drain_when_depleted_is_noop(self):
        battery = Battery(capacity=1.0)
        battery.drain(2.0)
        assert not battery.drain(0.1)

    def test_depletion_callback_fires_once(self):
        battery = Battery(capacity=1.0)
        fired = []
        battery.on_depleted(lambda: fired.append(1))
        battery.drain(0.6)
        battery.drain(0.6)
        battery.drain(0.6)
        assert fired == [1]

    def test_negative_drain_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery().drain(-0.1)

    def test_nan_drain_rejected_and_battery_untouched(self):
        # NaN is not ``< 0``; let through, it would turn ``remaining`` into
        # a NaN that no comparison ever finds empty: a node that cannot die.
        battery = Battery(capacity=1.0)
        with pytest.raises(ConfigurationError):
            battery.drain(float("nan"))
        assert battery.remaining == 1.0
        assert not battery.drain(2.0)
        assert battery.depleted

    def test_nan_recharge_rejected(self):
        battery = Battery(capacity=2.0, remaining=1.0)
        with pytest.raises(ConfigurationError):
            recharge(battery, float("nan"))
        assert battery.remaining == 1.0

    def test_nan_charge_counts_as_depleted(self):
        assert Battery(capacity=1.0, remaining=float("nan")).depleted

    def test_recharge_capped_at_capacity(self):
        battery = Battery(capacity=2.0)
        battery.drain(1.0)
        recharge(battery, 5.0)
        assert battery.remaining == 2.0

    def test_partial_initial_charge(self):
        battery = Battery(capacity=2.0, remaining=0.5)
        assert battery.fraction_remaining == pytest.approx(0.25)

    def test_mains_battery_never_depletes(self):
        battery = mains_battery()
        assert battery.drain(1e12)
        assert not battery.depleted
        assert battery.fraction_remaining == 1.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity=-1.0)
