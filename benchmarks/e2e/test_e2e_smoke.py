"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

Run as ``pytest benchmarks/e2e -q``; tier-1 (``testpaths = ["tests"]``)
does not collect it. It checks the harness, not the numbers: output
schema, declared == emitted names, the layer table, and that profiler
call counts repeat exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke pass over all six workloads, both modes, and beside it (on
    the second core; smoke timings are not looked at) a second traced run
    of each workload for the exact-repeat check."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as main_pass:
        again = {name: bench.measure(name, seed=0, smoke=True, traced=True)
                 for name in WORKLOADS}
        stdout, _ = main_pass.communicate(timeout=120)
    assert main_pass.returncode == 0
    line = json.loads(stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text()), again


@pytest.fixture(scope="module")
def results(smoke):
    return smoke[0]


def test_every_workload_emits_exactly_the_declared_metrics(results):
    assert [(r["workload"], r["traced"]) for r in results] == [
        (name, traced) for name in WORKLOADS for traced in (False, True)
    ]
    for result in results:
        declared = SPEC["per_layer" if result["traced"] else "end_to_end"]
        line = result["line"]
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            emitted = line["metrics"][metric["name"]]
            assert set(emitted) == {"value", "unit"}
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
        if not result["traced"]:
            assert all(m["value"] > 0 for m in line["metrics"].values())


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names
    for layer in layers.LAYERS:
        for suffix in ("self_s", "share", "calls"):
            assert f"{layer}.{suffix}" in names


def test_every_module_maps_to_exactly_one_layer():
    rules = [rule for _layer, rules in layers.LAYER_RULES for rule in rules]
    assert len(rules) == len(set(rules)), "a rule is listed under two layers"
    package = ROOT / "src" / "repro"
    unmapped = [
        str(path.relative_to(package)) for path in sorted(package.rglob("*.py"))
        if layers.layer_of(str(path.relative_to(package))) is None
    ]
    assert unmapped == [], "add these modules to benchmarks/e2e/layers.py"


def test_layer_shares_sum_to_one(results):
    for result in results:
        if result["traced"]:
            shares = [v for k, v in result["metrics"].items()
                      if k.endswith(".share")]
            assert len(shares) == len(layers.LAYERS)
            assert abs(sum(shares) - 1.0) <= 1e-6


@pytest.mark.parametrize("name", WORKLOADS)
def test_call_counts_repeat_exactly(smoke, name):
    """A second traced smoke run makes the same calls, layer by layer."""
    results, repeats = smoke
    first = next(r for r in results if r["workload"] == name and r["traced"])
    again = repeats[name]
    assert again["digest"] == first["digest"]
    fold = again["trace"]
    assert fold["total_calls"] / again["ops"] == \
        first["metrics"]["host.calls_per_op"]
    for layer, calls in fold["calls"].items():
        assert calls == first["metrics"][f"{layer}.calls"], layer
