"""The micro-benchmark gate's comparison (``benchmarks/run_benchmarks.py``)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "run_benchmarks.py"
spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
run_benchmarks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_benchmarks)


def op(median_ns):
    return {"median_ns": median_ns, "rounds": 5}


def test_a_baseline_op_the_run_lost_is_named_not_skipped():
    baseline = {"ops": {"kept": op(100.0), "slower": op(100.0),
                        "renamed_away": op(100.0), "deleted": op(100.0)}}
    current = {"kept": op(101.0), "slower": op(200.0), "brand_new": op(5.0)}
    rows, dropped = run_benchmarks.compare(baseline, current, threshold=1.5)
    assert [(name, bad) for name, _old, _new, _ratio, bad in rows] == [
        ("kept", False), ("slower", True)]
    assert dropped == ["deleted", "renamed_away"]


def test_nothing_dropped_when_the_run_covers_the_baseline():
    baseline = {"ops": {"a": op(10.0)}}
    assert run_benchmarks.compare(baseline, {"a": op(10.0), "b": op(1.0)}, 1.5) == (
        [("a", 10.0, 10.0, 1.0, False)], [])


def test_a_row_the_quick_run_skipped_is_neither_compared_nor_dropped():
    baseline = {"ops": {"a": op(10.0), "big": op(2000.0)}}
    current = {"a": op(10.0), "big": {"median_ns": None, "skipped": "quick"}}
    assert run_benchmarks.compare(baseline, current, 1.5) == (
        [("a", 10.0, 10.0, 1.0, False)], [])


def test_skew_normalization_refuses_a_baseline_recorded_at_two_shas():
    baseline = {"ops": {"a": dict(op(10.0), git_sha="a" * 40),
                        "b": dict(op(10.0), git_sha="b" * 40),
                        "c": dict(op(10.0), git_sha="a" * 40)}}
    current = {name: op(10.0) for name in "abc"}
    with pytest.raises(ValueError, match="2 shas: aaaaaaaaaaaa, bbbbbbbbbbbb"):
        run_benchmarks.compare(baseline, current, 1.3, normalize_skew=True)
    # Unnormalized ratios need no common machine speed, so the same
    # baseline still compares.
    assert run_benchmarks.compare(baseline, current, 1.3)[0][0][4] is False
    one_run = {"ops": {name: dict(stats, git_sha="a" * 40)
                       for name, stats in baseline["ops"].items()}}
    assert run_benchmarks.compare(one_run, current, 1.3, normalize_skew=True)[1] == []


def test_the_rss_gate_reads_only_rows_with_a_peak_on_both_sides():
    baseline = {"ops": {"small": op(10.0),
                        "big": dict(op(2000.0), peak_rss_mb=200.0)}}
    within = {"small": op(10.0), "big": dict(op(2000.0), peak_rss_mb=219.0)}
    assert run_benchmarks.compare_rss(baseline, within) == [
        ("big", 200.0, 219.0, 1.095, False)]
    over = {"big": dict(op(2000.0), peak_rss_mb=221.0)}
    assert run_benchmarks.compare_rss(baseline, over)[0][4] is True
    skipped = {"big": {"median_ns": None, "skipped": "quick"}}
    assert run_benchmarks.compare_rss(baseline, skipped) == []
