"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.core.feasibility import (
    combined_reliability,
    greedy_feasible_set,
    minimal_feasible_sets,
    satisfies,
)
from repro.core.sensors import SensorInfo
from repro.interop import sml
from repro.interop.codec import BinaryCodec, SmlCodec
from repro.netsim.simulator import Simulator
from repro.qos.spec import ConsumerQoS, SupplierQoS, score_match
from repro.recovery.store import TransactionalStore
from repro.recovery.wal import StableStorage
from repro.transactions.pubsub import topic_matches

# ---------------------------------------------------------------------------
# Value strategies for the codecs (JSON-like model).

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


def normalize(value):
    """Tuples become lists on the wire; make comparison fair."""
    if isinstance(value, tuple):
        return [normalize(v) for v in value]
    if isinstance(value, list):
        return [normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    return value


class TestCodecProperties:
    @given(json_values)
    @settings(max_examples=150)
    def test_binary_round_trip(self, value):
        codec = BinaryCodec()
        assert codec.decode(codec.encode(value)) == normalize(value)

    @given(json_values)
    @settings(max_examples=75)
    def test_sml_round_trip(self, value):
        codec = SmlCodec()
        assert codec.decode(codec.encode(value)) == normalize(value)


_tag = st.text(string.ascii_lowercase, min_size=1, max_size=8)
_attr_value = st.text(max_size=20)


class TestSmlProperties:
    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_text_escaping_round_trips(self, text):
        assert sml.unescape_text(sml.escape_text(text)) == text

    @given(_tag, st.dictionaries(_tag, _attr_value, max_size=4), st.text(max_size=50))
    @settings(max_examples=100)
    def test_element_round_trips(self, tag, attributes, text):
        node = sml.SmlElement(tag, attributes, text=text)
        again = sml.parse(sml.serialize(node))
        assert again.tag == tag
        assert again.attributes == attributes
        # Text-only elements preserve their content exactly.
        assert again.text == text


class TestPriorityQueueProperties:
    """The simulator's event queue fires in time order and never fires a
    cancelled event."""

    @given(st.lists(st.integers(0, 10**6), max_size=60))
    @settings(max_examples=100)
    def test_pops_sorted(self, times):
        sim = Simulator()
        fired = []
        for when in times:
            sim.schedule_at(when, lambda: fired.append(sim.now()))
        sim.run()
        assert fired == sorted(times)

    @given(st.lists(st.tuples(st.integers(0, 10), st.booleans()), max_size=40))
    @settings(max_examples=100)
    def test_cancelled_items_never_pop(self, spec):
        sim = Simulator()
        keep = []
        fired = []
        for i, (when, cancel) in enumerate(spec):
            handle = sim.schedule_at(when, fired.append, i)
            if cancel:
                handle.cancel()
            else:
                keep.append(i)
        sim.run()
        assert sorted(fired) == keep


_reliability = st.floats(min_value=0.05, max_value=1.0)


def _sensor_fleet():
    return st.lists(
        st.builds(
            lambda i, rels: SensorInfo(
                f"s{i}", {f"v{j}": r for j, r in enumerate(rels)},
                active_power_w=0.01, energy_j=1.0,
            ),
            st.integers(0, 10**6),
            st.lists(_reliability, min_size=1, max_size=3),
        ),
        min_size=1, max_size=7, unique_by=lambda s: s.sensor_id,
    )


class TestFeasibilityProperties:
    @given(_sensor_fleet(), st.dictionaries(
        st.sampled_from(["v0", "v1", "v2"]),
        st.floats(min_value=0.1, max_value=0.999), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_minimal_sets_satisfy_and_are_minimal(self, sensors, requirements):
        by_id = {s.sensor_id: s for s in sensors}
        for feasible in minimal_feasible_sets(sensors, requirements, max_sets=32):
            members = [by_id[i] for i in feasible]
            assert satisfies(members, requirements)
            for removed in feasible:
                assert not satisfies(
                    [by_id[i] for i in feasible if i != removed], requirements
                )

    @given(_sensor_fleet(), st.dictionaries(
        st.sampled_from(["v0", "v1"]),
        st.floats(min_value=0.1, max_value=0.999), min_size=1, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_greedy_agrees_with_exact_on_feasibility(self, sensors, requirements):
        exact = minimal_feasible_sets(sensors, requirements, max_sets=64)
        greedy = greedy_feasible_set(sensors, requirements)
        assert (greedy is not None) == bool(exact)
        if greedy is not None:
            by_id = {s.sensor_id: s for s in sensors}
            assert satisfies([by_id[i] for i in greedy], requirements)

    @given(_sensor_fleet(), st.sampled_from(["v0", "v1", "v2"]))
    @settings(max_examples=100)
    def test_combined_reliability_monotone_in_membership(self, sensors, variable):
        for cut in range(len(sensors)):
            smaller = combined_reliability(sensors[:cut], variable)
            larger = combined_reliability(sensors, variable)
            assert larger >= smaller - 1e-12

    @given(_sensor_fleet(), st.sampled_from(["v0", "v1"]))
    @settings(max_examples=100)
    def test_combined_reliability_in_unit_interval(self, sensors, variable):
        value = combined_reliability(sensors, variable)
        assert 0.0 <= value <= 1.0


class TestQoSMatchProperties:
    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100)
    def test_score_in_unit_interval_when_feasible(
        self, reliability, availability, floor
    ):
        supplier = SupplierQoS(reliability=reliability, availability=availability)
        consumer = ConsumerQoS(min_reliability=floor)
        match = score_match(supplier, consumer)
        if match is not None:
            assert 0.0 <= match.total <= 1.0
            assert reliability >= floor

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=100)
    def test_feasibility_exactly_mirrors_floor(self, reliability, floor):
        supplier = SupplierQoS(reliability=reliability)
        consumer = ConsumerQoS(min_reliability=floor)
        assert (score_match(supplier, consumer) is not None) == (reliability >= floor)


# Crash-recovery property: after any crash point, committed == visible.

_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "commit", "abort", "crash"]),
        st.sampled_from(["k1", "k2", "k3"]),
        st.integers(0, 100),
    ),
    max_size=30,
)


class TestStoreProperties:
    @given(_ops, st.integers(min_value=2, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_crash_recovery_preserves_exactly_commits(self, operations, interval):
        storage = StableStorage()
        store = TransactionalStore(storage, checkpoint_interval_ops=interval)
        expected = {}
        open_tx = None
        open_writes = {}
        for op, key, value in operations:
            if op == "put":
                if open_tx is None:
                    open_tx = store.begin()
                    open_writes = {}
                store.put(open_tx, key, value)
                open_writes[key] = value
            elif op == "commit" and open_tx is not None:
                store.commit(open_tx)
                expected.update(open_writes)
                open_tx, open_writes = None, {}
            elif op == "abort" and open_tx is not None:
                store.abort(open_tx)
                open_tx, open_writes = None, {}
            elif op == "crash":
                store.crash()
                store.recover()
                open_tx, open_writes = None, {}  # volatile tx is gone
                assert store.snapshot() == expected
        store.crash()
        recovered = TransactionalStore(storage, checkpoint_interval_ops=interval)
        assert recovered.snapshot() == expected


class TestTopicProperties:
    _topic = st.lists(
        st.text(string.ascii_lowercase, min_size=1, max_size=4),
        min_size=1, max_size=4,
    ).map(".".join)

    @given(_topic)
    @settings(max_examples=100)
    def test_exact_topic_matches_itself(self, topic):
        assert topic_matches(topic, topic)

    @given(_topic)
    @settings(max_examples=100)
    def test_hash_matches_everything(self, topic):
        assert topic_matches("#", topic)

    @given(_topic, _topic)
    @settings(max_examples=100)
    def test_exact_pattern_matches_only_equal(self, pattern, topic):
        if pattern != topic:
            assert not topic_matches(pattern, topic) or pattern == topic
