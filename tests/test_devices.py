"""Tests for RFID tags (slotted-ALOHA anti-collision) and GPS devices."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim.devices import GpsDevice, InventoryResult, RfidReader, RfidTag
from repro.netsim.mobility import LinearMobility
from repro.netsim.network import Network
from repro.util.geometry import Point


def reader_with_tags(count, seed=0, range_m=3.0):
    reader = RfidReader(Point(0, 0), range_m=range_m, seed=seed)
    for i in range(count):
        # All within range, scattered on a small circle.
        angle = 2 * math.pi * i / max(1, count)
        reader.place_tag(RfidTag(
            f"tag-{i}",
            Point(0.5 * math.cos(angle), 0.5 * math.sin(angle)),
            memory={"sku": f"item-{i}"},
        ))
    return reader


class TestRfid:
    def test_all_in_field_tags_read_despite_collisions(self):
        reader = reader_with_tags(40)
        result = reader.inventory()
        assert sorted(result.read_tags) == sorted(f"tag-{i}" for i in range(40))
        assert result.collisions > 0  # 40 tags in an 8-slot first frame

    def test_each_tag_read_exactly_once(self):
        result = reader_with_tags(25, seed=3).inventory()
        assert len(result.read_tags) == len(set(result.read_tags)) == 25

    def test_out_of_range_tags_invisible(self):
        reader = reader_with_tags(5)
        reader.place_tag(RfidTag("far", Point(100, 0)))
        result = reader.inventory()
        assert "far" not in result.read_tags

    def test_empty_field(self):
        reader = RfidReader(Point(0, 0))
        result = reader.inventory()
        assert result.read_tags == () and result.rounds == 0

    def test_single_tag_single_round(self):
        reader = reader_with_tags(1)
        result = reader.inventory()
        assert result.read_tags == ("tag-0",)
        assert result.rounds == 1
        assert result.collisions == 0

    def test_onboard_memory_read(self):
        reader = reader_with_tags(3)
        assert reader.read_memory("tag-1", "sku") == "item-1"
        assert reader.read_memory("tag-1", "missing") is None
        assert reader.read_memory("ghost", "sku") is None

    def test_slot_efficiency_bounded(self):
        result = reader_with_tags(64, seed=7).inventory()
        # Framed ALOHA cannot exceed ~36.8% and should not be abysmal
        # with adaptive frames.
        assert 0.1 < len(result.read_tags) / result.total_slots <= 0.5

    def test_deterministic_per_seed(self):
        a = reader_with_tags(20, seed=9).inventory()
        b = reader_with_tags(20, seed=9).inventory()
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RfidReader(Point(0, 0), range_m=0)
        with pytest.raises(ConfigurationError):
            RfidTag("", Point(0, 0))

    @given(st.integers(min_value=0, max_value=60), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_complete_inventory(self, count, seed):
        """Anti-collision always terminates with every tag read once."""
        result = reader_with_tags(count, seed=seed).inventory()
        assert sorted(result.read_tags) == sorted(f"tag-{i}" for i in range(count))


class TestGps:
    def make_device(self, **kwargs):
        network = Network()
        node = network.add_node("rover", position=Point(100, 200))
        return network, GpsDevice(node, seed=1, **kwargs)

    def test_no_fix_before_acquisition(self):
        network, gps = self.make_device(acquisition_s=30.0)
        assert gps.fix() is None
        network.sim.run_until(31.0)
        assert gps.fix() is not None

    def test_fix_error_within_reason(self):
        network, gps = self.make_device(accuracy_m=5.0, acquisition_s=0.0)
        errors = []
        for _ in range(200):
            fix = gps.fix()
            errors.append(math.hypot(fix.x - 100, fix.y - 200))
        mean_error = sum(errors) / len(errors)
        # Rayleigh mean for sigma=5 is ~6.27 m; allow slack.
        assert 3.0 < mean_error < 10.0

    def test_perfect_gps(self):
        network, gps = self.make_device(accuracy_m=0.0, acquisition_s=0.0)
        assert gps.fix() == Point(100, 200)

    def test_outages_counted(self):
        network, gps = self.make_device(accuracy_m=1.0, acquisition_s=0.0,
                                        outage_probability=0.5)
        for _ in range(200):
            gps.fix()
        assert 50 < gps.failed_fixes < 150
        assert gps.fixes + gps.failed_fixes == 200

    def test_mean_fix_tighter_than_single(self):
        network, gps = self.make_device(accuracy_m=8.0, acquisition_s=0.0)
        single_errors = [
            math.hypot(gps.fix().x - 100, gps.fix().y - 200) for _ in range(100)
        ]
        mean_errors = [
            math.hypot(p.x - 100, p.y - 200)
            for p in (gps.mean_fix(16) for _ in range(100))
        ]
        assert (sum(mean_errors) / len(mean_errors)
                < sum(single_errors) / len(single_errors))

    def test_tracks_mobile_node(self):
        network = Network()
        node = network.add_node(
            "rover", mobility=LinearMobility(Point(0, 0), velocity=(10.0, 0.0))
        )
        gps = GpsDevice(node, accuracy_m=0.0, acquisition_s=0.0, seed=2)
        network.sim.run_until(5.0)
        assert gps.fix() == Point(50, 0)

    def test_validation(self):
        network = Network()
        node = network.add_node("n")
        with pytest.raises(ConfigurationError):
            GpsDevice(node, accuracy_m=-1)
        with pytest.raises(ConfigurationError):
            GpsDevice(node, outage_probability=1.0)
