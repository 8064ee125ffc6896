"""The indexed TupleStore against its oracle: a plain list, scanned in order.

The linear scan left ``src/`` with PR 12; it lives on here as the reference
model. The store must return the *same list object* the scan returns (first
match in insertion order), keep the same iteration order and length, and
its index must hold exactly the hashable fields of the tuples still stored
— no empty bucket, no sequence number left behind by a removal.
"""

from __future__ import annotations

from typing import Any, List, Optional

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.replication.services import TupleSpaceMachine
from repro.transactions.tuplespace import TupleStore, template_matches

# A small pool so collisions are the common case. 1 / 1.0 / True hash and
# compare alike; the two NaN objects equal nothing, themselves included; the
# "?name" strings are wildcards in a template and plain strings in a tuple;
# lists, dicts and a tuple holding a list are unhashable, so never indexed.
_NAN_A, _NAN_B = float("nan"), float("nan")
_FIELDS = [
    0, 1, 1.0, True, False, 2, 2.5, "", "a", "chat", b"", b"a", None,
    _NAN_A, _NAN_B, "?int", "?str", "?list", (1, 2), (1, [2]),
    [], [1], [[1]], {}, {"k": 1}, {"k": [1]},
]
_WILDCARDS = [None, "?int", "?float", "?str", "?bool", "?bytes", "?list", "?dict"]

_field = st.sampled_from(_FIELDS)
_tuple = st.lists(_field, max_size=3)
_template = st.lists(
    st.one_of(_field, st.sampled_from(_WILDCARDS)), max_size=3
)


def scan(tuples: List[List[Any]], template: List[Any],
         remove: bool = False) -> Optional[List[Any]]:
    """The reference: what both tuple spaces did before the index."""
    for i, candidate in enumerate(tuples):
        if template_matches(template, candidate):
            if remove:
                del tuples[i]
            return candidate
    return None


def expected_index(store: TupleStore) -> dict:
    index: dict = {}
    for seq, values in store._tuples.items():
        for position, value in enumerate(values):
            try:
                hash(value)
            except TypeError:
                continue
            index.setdefault((len(values), position, value), {})[seq] = None
    return index


class TupleStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = TupleStore()
        self.model: List[List[Any]] = []

    @rule(values=_tuple)
    def add(self, values: List[Any]) -> None:
        values = list(values)  # one object per stored tuple, for ``is``
        self.store.add(values)
        self.model.append(values)

    @rule(template=_template, remove=st.booleans())
    def find(self, template: List[Any], remove: bool) -> None:
        assert self.store.find(template, remove) is scan(
            self.model, template, remove
        )

    @rule(data=st.data(), remove=st.booleans())
    def find_stored(self, data: st.DataObject, remove: bool) -> None:
        """Templates cut from a stored tuple, so hits are common."""
        if not self.model:
            return
        values = data.draw(st.sampled_from(self.model))
        self.find([
            None if data.draw(st.booleans()) else value for value in values
        ], remove)

    @invariant()
    def same_order_and_length(self) -> None:
        stored = list(self.store)
        assert len(self.store) == len(stored) == len(self.model)
        assert all(a is b for a, b in zip(stored, self.model))

    @invariant()
    def index_is_exactly_the_stored_fields(self) -> None:
        index = self.store._index
        assert index == expected_index(self.store)
        assert all(list(bucket) == sorted(bucket) for bucket in index.values())


TupleStoreMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40
)
TestTupleStoreAgainstLinearScan = TupleStoreMachine.TestCase


def test_equal_numbers_share_a_bucket():
    store = TupleStore([["n", 1.0], ["n", True], ["n", 1]])
    assert store.find(["n", 1]) == ["n", 1.0]
    assert store.find(["n", "?bool"]) == ["n", True]
    assert store.find(["n", "?int"], remove=True) == ["n", 1]
    assert list(store) == [["n", 1.0], ["n", True]]


def test_type_names_are_wildcards_in_templates_and_strings_in_tuples():
    store = TupleStore([["?int"], [7]])
    assert store.find(["?int"]) == [7]
    assert store.find(["?str"]) == ["?int"]


def test_no_concrete_field_falls_back_to_the_ordered_scan():
    store = TupleStore([["a", [1]], ["b", [2]], ["c", [2]]])
    assert store.find([None, [2]]) == ["b", [2]]
    assert store.find(["?str", None], remove=True) == ["a", [1]]
    assert store.find([None, None]) == ["b", [2]]


@given(
    tuples=st.lists(_tuple, max_size=12),
    takes=st.lists(_template, max_size=6),
    probes=st.lists(_template, max_size=12),
)
def test_machine_snapshot_restore_round_trip(tuples, takes, probes):
    """A restored replica answers every later read and take as the
    snapshotted one does: same order in, index rebuilt."""
    original = TupleSpaceMachine()
    for values in tuples:
        original.apply("out", (values,))
    for template in takes:
        original.apply("inp", (template,))
    restored = TupleSpaceMachine()
    restored.restore(original.snapshot())

    # Compared by repr: ``==`` cannot tell 1 from 1.0 from True.
    assert repr(restored.snapshot()) == repr(original.snapshot())
    assert restored.read("count", ()) == original.read("count", ())
    assert restored.tuples._index == expected_index(restored.tuples)
    for template in probes:
        assert repr(restored.read("rdp", (template,))) == repr(
            original.read("rdp", (template,))
        )
    for template in probes:  # now destructively: removal order must agree
        assert repr(restored.apply("inp", (template,)).result) == repr(
            original.apply("inp", (template,)).result
        )
    assert repr(restored.snapshot()) == repr(original.snapshot())
