"""Every committed mutant still applies to the code it names.

The kills themselves run in CI's "Mutants" step (``python -m
tests.mutants``), out of tier-1's wall time; here each row's target must
exist, its old text must occur exactly once in the target and in its file,
and its property must be a test that exists.
"""

import importlib

import pytest

from tests.mutants import MUTANTS, source_file, target_source


def test_row_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_row_applies(mutant):
    assert mutant.old != mutant.new
    assert target_source(mutant.target).count(mutant.old) == 1
    assert source_file(mutant.target).read_text().count(mutant.old) == 1
    assert mutant.profile == "ci"
    path, cls, method = mutant.prop.split("::")
    module = importlib.import_module(path[:-len(".py")].replace("/", "."))
    assert callable(getattr(getattr(module, cls), method))
