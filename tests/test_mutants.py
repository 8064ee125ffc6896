"""Every row of the defect table applies, and the apply routine restores.

The kills themselves run elsewhere: the plants' in E14 and the simtest
tests, the mutants' in CI's "Mutants" step (``python -m tests.mutants``),
out of tier-1's wall time. Here each row's patch must apply to the code it
names and be undone on exit, a ``from``-import copy must see it, and a row
that does not apply must fail by its name.
"""

import importlib

import pytest

from repro.core.sensors import SensorInfo
from repro.simtest.defects import (
    DEFECTS,
    PLANTS,
    Defect,
    applied,
    target_function,
)
from tests import test_feasibility_property


def test_row_names_are_unique():
    assert len(DEFECTS) == 25
    assert all(name == row.name for name, row in DEFECTS.items())


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_row_applies(name):
    row = DEFECTS[name]
    function = target_function(row.target)
    original = function.__code__
    assert row.old != row.new
    with applied(name):
        assert function.__code__ is not original
    assert function.__code__ is original


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_row_names_its_judge(name):
    judge = DEFECTS[name].judge
    if name in PLANTS:
        assert judge in {"delivery", "discovery", "ledger",
                         "linearizability-so", "milan"}
        return
    path, cls, method = judge.split("::")
    module = importlib.import_module(path[:-len(".py")].replace("/", "."))
    assert callable(getattr(getattr(module, cls), method))


def test_restores_when_the_block_raises():
    function = target_function(DEFECTS["broken-watermark"].target)
    original = function.__code__
    with pytest.raises(RuntimeError, match="inside"):
        with applied("broken-watermark"):
            raise RuntimeError("inside")
    assert function.__code__ is original


def test_a_from_import_copy_sees_the_defect():
    satisfies = test_feasibility_property.satisfies
    group = [SensorInfo("s", {"x": 0.5})]
    exact = {"x": 0.5 + 1e-12}
    assert satisfies(group, exact)
    with applied("satisfies-strict"):
        assert not satisfies(group, exact)
    assert satisfies(group, exact)


def test_unknown_name_lists_the_rows():
    with pytest.raises(ValueError, match="unknown defect 'no-such-row'.*"
                                         "broken-watermark"):
        with applied("no-such-row"):
            pass


@pytest.mark.parametrize("old", ["seq > self.watermark", "self."])
def test_a_patch_that_does_not_apply_fails_by_name(old, monkeypatch):
    target = DEFECTS["broken-watermark"].target
    monkeypatch.setitem(DEFECTS, "bad-row",
                        Defect("bad-row", target, old, "x", "delivery", ""))
    function = target_function(target)
    original = function.__code__
    with pytest.raises(ValueError, match="'bad-row'.* occurs [02] times"):
        with applied("bad-row"):
            pass
    assert function.__code__ is original


def test_a_target_with_free_variables_is_refused(monkeypatch):
    target = "repro.replication.client:GroupClient.__init__"
    assert target_function(target).__code__.co_freevars == ("__class__",)
    monkeypatch.setitem(DEFECTS, "closure-row", Defect(
        "closure-row", target, "self.max_attempts = max_attempts",
        "self.max_attempts = 1", "ledger", ""))
    original = target_function(target).__code__
    with pytest.raises(ValueError, match="free vars"):
        with applied("closure-row"):
            pass
    assert target_function(target).__code__ is original
