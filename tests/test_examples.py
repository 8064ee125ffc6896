"""Every ``examples/*.py`` runs to completion: the examples are drivers
under ``test_judging_kit.py::test_every_module_has_a_driver``, so tier-1
runs each as CI's "Examples smoke" does. Collected by glob."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", [str(example)])
    try:
        runpy.run_path(str(example), run_name="__main__")
    except SystemExit as exit_:
        assert not exit_.code, f"{example.name} exited with {exit_.code!r}"
    assert capsys.readouterr().out, f"{example.name} printed nothing"
