"""Every ``examples/*.py`` runs to completion: the examples are drivers
under ``test_judging_kit.py::test_every_module_has_a_driver``, so tier-1
runs each as CI's "Examples smoke" does. Collected by glob. So does every
```` ```python ```` block of README, each in a fresh interpreter."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", [str(example)])
    try:
        runpy.run_path(str(example), run_name="__main__")
    except SystemExit as exit_:
        assert not exit_.code, f"{example.name} exited with {exit_.code!r}"
    assert capsys.readouterr().out, f"{example.name} printed nothing"


def readme_blocks():
    """README's ```` ```python ```` blocks, each named by its heading."""
    blocks, heading = [], "README"
    lines = iter((ROOT / "README.md").read_text().splitlines())
    for line in lines:
        if line.startswith("#"):
            heading = line.lstrip("# ")
        elif line == "```python":
            code = "\n".join(iter(lines.__next__, "```"))
            blocks.append(pytest.param(code, id=heading))
    return blocks


@pytest.mark.parametrize("code", readme_blocks())
def test_readme_block_runs(code):
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
