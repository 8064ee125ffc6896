"""End-to-end tests for the deterministic simulation-testing framework."""

import json

import pytest

from repro.experiments import exp_simtest
from repro.experiments.common import ShapeError
from repro.simtest import __main__ as cli
from repro.simtest.defects import DEFECTS, PLANTS, Defect
from repro.simtest.explorer import explore, scenario_for_iteration
from repro.simtest.scenario import Scenario, Step, generate_scenario
from repro.simtest.shrinker import (
    load_repro,
    replay_repro,
    shrink,
    write_repro,
)
from repro.simtest.world import execute_scenario

pytestmark = pytest.mark.simtest


# The interleaving that exposes the eager-get plant: a partition drops the
# helper cache's invalidation, the monitor reads the leaked new value, and
# the helper serves the stale cached one strictly afterwards.
EAGER_GET_TRIGGER = Scenario(
    seed=7,
    tie_seed=7,
    steps=(
        Step(0.5, "so_write", ("cfg", 111, 1)),
        Step(1.0, "partition", (1, 1.2)),
        Step(1.3, "so_write", ("cfg", 222, 0)),
        Step(1.6, "so_read", ("cfg", 0)),
        Step(2.6, "so_read", ("cfg", 1)),
    ),
)


class TestScenario:
    def test_generation_deterministic(self):
        a = generate_scenario(42, 43, n_steps=30)
        b = generate_scenario(42, 43, n_steps=30)
        assert a == b

    def test_dict_round_trip(self):
        scenario = generate_scenario(42, 43, n_steps=30)
        # Through JSON, as the repro file does.
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    def test_steps_sorted_by_time(self):
        scenario = generate_scenario(9, 9, n_steps=40)
        times = [step.at for step in scenario.steps]
        assert times == sorted(times)

    def test_explorer_iteration_replayable(self):
        assert scenario_for_iteration(0, 5) == scenario_for_iteration(0, 5)
        assert scenario_for_iteration(0, 5) != scenario_for_iteration(0, 6)


class TestExecution:
    def test_replay_is_bit_identical(self):
        scenario = scenario_for_iteration(0, 3)
        first = execute_scenario(scenario)
        second = execute_scenario(scenario)
        assert first.stats == second.stats
        assert [d.to_dict() for d in first.divergences] == [
            d.to_dict() for d in second.divergences
        ]

    def test_tie_seed_changes_schedule(self):
        base = scenario_for_iteration(0, 3)
        other = Scenario(base.seed, base.tie_seed + 1, base.steps,
                         base.horizon_s)
        # Different tie-breaking is still a valid execution: clean, even if
        # the event interleaving (and so the stats) may differ.
        assert execute_scenario(other).ok

    def test_small_sweep_is_clean(self):
        report = explore(15, seed=0)
        assert report.ok
        assert report.runs == 15
        assert report.totals["events"] > 0
        assert report.totals["lin_objects"] > 0


class TestPlants:
    def test_broken_watermark_caught(self):
        report = explore(20, seed=0, plant="broken-watermark")
        assert not report.ok
        assert ("delivery", "delivery-mismatch") in {
            d.signature for d in report.divergences
        }

    def test_eager_get_caught_by_linearizability(self):
        clean = execute_scenario(EAGER_GET_TRIGGER)
        assert clean.ok, clean.divergences
        broken = execute_scenario(EAGER_GET_TRIGGER, plant="eager-get")
        assert ("linearizability-so", "non-linearizable") in broken.signatures()

    def test_truncated_feasibility_caught(self):
        report = explore(20, seed=0, plant="truncated-feasibility")
        assert not report.ok
        assert ("milan", "feasible-set-mismatch") in {
            d.signature for d in report.divergences
        }


class TestShrinker:
    def test_minimizes_below_ten_steps(self):
        report = explore(20, seed=0, plant="broken-watermark")
        assert not report.ok
        result = shrink(report.divergent_scenario,
                        report.divergences[0].signature,
                        plant="broken-watermark")
        assert result.steps <= 10
        assert result.steps < result.initial_steps
        # The minimized scenario still reproduces.
        replay = execute_scenario(result.scenario, plant="broken-watermark")
        assert result.signature in replay.signatures()

    def test_directed_trigger_shrinks(self):
        result = shrink(EAGER_GET_TRIGGER,
                        ("linearizability-so", "non-linearizable"),
                        plant="eager-get")
        assert result.steps <= 5

    def test_repro_file_round_trip(self, tmp_path):
        path = tmp_path / "repro.json"
        write_repro(str(path), EAGER_GET_TRIGGER,
                    ("linearizability-so", "non-linearizable"),
                    plant="eager-get", detail="stale cached read")
        scenario, signature, plant = load_repro(str(path))
        assert scenario == EAGER_GET_TRIGGER
        assert signature == ("linearizability-so", "non-linearizable")
        assert plant == "eager-get"
        reproduced, observed = replay_repro(str(path))
        assert reproduced, observed

    def test_repro_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro.simtest"):
            load_repro(str(path))


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        code = cli.main([
            "run", "--budget", "5", "--seed", "0", "--json", str(summary),
        ])
        assert code == 0
        payload = json.loads(summary.read_text())
        assert payload["ok"] is True
        assert payload["runs"] == 5
        assert "zero divergences" in capsys.readouterr().out

    def test_planted_run_shrinks_and_verifies(self, tmp_path, capsys):
        repro = tmp_path / "repro.json"
        code = cli.main([
            "run", "--budget", "20", "--seed", "0",
            "--plant", "broken-watermark", "--expect-divergence",
            "--repro-out", str(repro),
        ])
        assert code == 0
        assert repro.exists()
        out = capsys.readouterr().out
        assert "divergence after" in out
        assert "replays deterministically" in out
        # And the repro subcommand agrees.
        assert cli.main(["repro", str(repro)]) == 0

    def test_expect_divergence_requires_the_plant_s_judge(
            self, tmp_path, capsys, monkeypatch):
        row = DEFECTS["broken-watermark"]
        monkeypatch.setitem(DEFECTS, row.name, Defect(
            row.name, row.target, row.old, row.new, "ledger", ""))
        code = cli.main([
            "run", "--budget", "20", "--seed", "0",
            "--plant", "broken-watermark", "--expect-divergence",
            "--repro-out", str(tmp_path / "repro.json"),
        ])
        assert code == 1
        assert "caught by delivery, not by the plant's judge ledger" in (
            capsys.readouterr().err)

    def test_e14_verdict_requires_each_plant_s_judge(self):
        clean = {"plant": "(none)", "found_after": "clean x60",
                 "reproduces": True}
        row = {"plant": "double-apply", "found_after": "21", "shrunk": 5,
               "replays": 102, "reproduces": True,
               "oracle": "ledger/state-mismatch"}
        assert exp_simtest.verdict([clean, row]).startswith("holds (1/1")
        with pytest.raises(ShapeError, match="caught by delivery/"):
            exp_simtest.verdict([clean, dict(
                row, oracle="delivery/delivery-mismatch")])

    def test_plants_listing(self, capsys):
        assert cli.main(["plants"]) == 0
        out = capsys.readouterr().out
        for name in PLANTS:
            assert name in out
