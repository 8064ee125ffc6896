"""Tests for the multiprocess sweep runner and its seed-spec parsing."""

import pytest

from repro.experiments import table
from repro.experiments.common import Experiment, ShapeError
from repro.util.rng import parse_seeds
from repro.experiments.sweep import fan_out, merged_rows, run_sweep


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("0-3") == [0, 1, 2, 3]

    def test_comma_list(self):
        assert parse_seeds("1,5,9") == [1, 5, 9]

    def test_single(self):
        assert parse_seeds("7") == [7]

    def test_mixed_groups(self):
        assert parse_seeds("0-2,9,20-21") == [0, 1, 2, 9, 20, 21]

    def test_negative_singleton(self):
        assert parse_seeds("-3") == [-3]

    def test_duplicates_dropped_order_kept(self):
        assert parse_seeds("2,0-3,2") == [2, 0, 1, 3]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("5-2")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds(",")


class TestFanOut:
    def test_serial_matches_pool_order(self):
        jobs = list(range(8))
        serial = fan_out(jobs, _double, max_workers=1)
        pooled = fan_out(jobs, _double, max_workers=3, use_processes=True)
        threaded = fan_out(jobs, _double, max_workers=3, use_processes=False)
        assert serial == pooled == threaded == [j * 2 for j in jobs]

    def test_on_result_sees_every_job(self):
        seen = []
        fan_out([1, 2, 3], _double, max_workers=1,
                on_result=lambda job, result: seen.append((job, result)))
        assert sorted(seen) == [(1, 2), (2, 4), (3, 6)]


@pytest.fixture
def selftest(monkeypatch):
    """Three instant rows patched into the table: one that holds, one whose
    run raises, one whose verdict finds its table out of shape."""
    rows = [Experiment(row_id, "nowhere", "harness self-test", run, verdict)
            for row_id, run, verdict in (("selftest", _square, _squared),
                                         ("boom", _boom, _squared),
                                         ("misshapen", _square, _never))]
    monkeypatch.setattr(table, "EXPERIMENTS", [*table.EXPERIMENTS, *rows])


@pytest.mark.usefixtures("selftest")
class TestRunSweep:
    def test_deterministic_merge_across_worker_counts(self):
        # A real row: pool workers see the table their interpreter imports.
        seeds = [3, 0, 7, 1]
        serial = run_sweep(["spatial"], seeds, max_workers=1)
        pooled = run_sweep(["spatial"], seeds, max_workers=2)
        strip = lambda o: {k: v for k, v in o.items()
                           if k not in ("wall_s", "pid")}
        assert [strip(o) for o in serial] == [strip(o) for o in pooled]
        assert [o["seed"] for o in pooled] == seeds  # submission order

    def test_grid_order(self):
        outcomes = run_sweep(["selftest", "selftest"], [0, 1], max_workers=1)
        assert [(o["experiment"], o["seed"]) for o in outcomes] == [
            ("selftest", 0), ("selftest", 1), ("selftest", 0), ("selftest", 1),
        ]

    def test_a_word_sweeps_its_seeded_rows_in_table_order(self):
        outcomes = run_sweep(["milan", "E5b"], [0], max_workers=1)
        # E10b (the cap ablation) takes no seed: the word leaves it out.
        assert [o["experiment"] for o in outcomes] == ["E10", "E5b"]
        assert outcomes[0]["verdict"].startswith("holds (4.00x vs all-on")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown sweepable 'no-such-thing'"):
            run_sweep(["no-such-thing"], [0])

    def test_a_seedless_row_is_refused_by_name_with_the_reason(self):
        with pytest.raises(ValueError, match="'degradation' cannot be swept: "
                                             "the run of E4 takes no seed"):
            run_sweep(["selftest", "degradation"], [0])

    def test_worker_failure_is_captured(self):
        outcomes = run_sweep(["boom", "selftest"], [0], max_workers=1)
        assert outcomes[0]["error"] == "RuntimeError: seed 0 exploded"
        assert outcomes[0]["rows"] == []
        assert outcomes[1]["error"] is None
        assert outcomes[1]["verdict"] == "holds (0)"

    def test_a_failed_verdict_is_an_error_outcome_in_its_place(self):
        outcomes = run_sweep(["selftest", "misshapen", "selftest"], [2, 1],
                             max_workers=1)
        assert [(o["experiment"], o["seed"]) for o in outcomes] == [
            ("selftest", 2), ("selftest", 1), ("misshapen", 2), ("misshapen", 1),
            ("selftest", 2), ("selftest", 1)]
        assert [o["error"] for o in outcomes] == [
            None, None, "ShapeError: misshapen: 4 is not odd",
            "ShapeError: misshapen: 1 is not even", None, None]
        assert outcomes[2]["rows"] == [{"seed": 2, "square": 4}]  # still there
        assert merged_rows(outcomes)[2] == {
            "experiment": "misshapen", "seed": 2,
            "error": "ShapeError: misshapen: 4 is not odd"}

    def test_merged_rows_tags_and_keeps_errors(self):
        outcomes = [
            {"experiment": "a", "seed": 0, "rows": [{"x": 1}, {"x": 2}],
             "error": None},
            {"experiment": "b", "seed": 1, "rows": [], "error": "Boom: no"},
        ]
        rows = merged_rows(outcomes)
        assert rows == [
            {"experiment": "a", "seed": 0, "x": 1},
            {"experiment": "a", "seed": 0, "x": 2},
            {"experiment": "b", "seed": 1, "error": "Boom: no"},
        ]


def _double(job):
    return job * 2


def _square(seed=0):
    return [{"seed": seed, "square": seed * seed}]


def _squared(rows):
    return f"holds ({rows[0]['square']})"


def _boom(seed=0):
    raise RuntimeError(f"seed {seed} exploded")


def _never(rows):
    square = rows[0]["square"]
    raise ShapeError(f"{square} is not {'odd' if square % 2 == 0 else 'even'}")
