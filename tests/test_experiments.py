"""The experiment table, the document generated from it, and its verdicts.

``EXPERIMENTS.md`` is compared with what the table generates (every row run
once at full size, so that is where each claim's shape is asserted). The
``Test*Harness`` classes do what that comparison cannot: run a row *away*
from the report's point — another seed, a reduced size — through the row's
own verdict, or hand a verdict a table that breaks its claim and require it
to say so.
"""

import copy
import re

import pytest

from repro.experiments import exp_discovery, exp_milan, format_table, sweep, table
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.common import Experiment, ShapeError, check

ROWS = {row.id: row for row in table.EXPERIMENTS}


def judged(row_id, **kwargs):
    row = ROWS[row_id]
    return row.judge(row.run(**kwargs))


@pytest.fixture(scope="module")
def measured():
    """Every row run once at its defaults, as ``report`` does (~15 s)."""
    return table.measure()


def broken(measured, row_id, key, column, value):
    """The measured rows of ``row_id`` with one cell of the ``key`` row replaced."""
    rows = copy.deepcopy(measured[row_id][0])
    next(row for row in rows if key in row.values())[column] = value
    return rows


class TestFormatTable:
    def test_renders_columns(self):
        table_text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}], "t")
        assert table_text.splitlines()[0] == "t"
        assert "0.1235" in table_text  # 4 significant digits

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], "t")


class TestTable:
    def test_ids_are_unique_and_the_document_has_them_in_order(self):
        ids = [row.id for row in table.EXPERIMENTS]
        assert len(set(ids)) == len(ids)
        text = table.REPORT_PATH.read_text(encoding="utf-8")
        assert re.findall(r"^<!-- table:(\S+) -->$", text, re.MULTILINE) == ids
        assert re.findall(r"^## (\S+)", text, re.MULTILINE) == ids + ["Summary"]

    def test_wall_names_columns_the_run_returns(self, measured):
        for row in table.EXPERIMENTS:
            assert set(row.wall) <= set(measured[row.id][0][0]), row.id
        assert {row.id: row.wall for row in table.EXPERIMENTS if row.wall} == {
            "E8": ("recovery_wall_ms",), "E9": ("cpu_ms_total",),
            "E10b": ("enumeration_ms",)}


class TestReport:
    def test_experiments_md_is_what_the_table_generates(self, measured):
        text = table.REPORT_PATH.read_text(encoding="utf-8")
        assert table.render(text, measured) == text, (
            "EXPERIMENTS.md drifted: run `python -m repro.experiments report`")
        for row in table.EXPERIMENTS:  # no wall-clock column inside a block
            block = text.split(f"<!-- table:{row.id} -->")[1].split("<!-- /table")[0]
            assert not set(row.wall) & set(block.split()), row.id

    def test_a_hand_edit_inside_a_block_is_drift(self, measured):
        text = table.REPORT_PATH.read_text(encoding="utf-8")
        edited = text.replace("milan-max-lifetime  2480", "milan-max-lifetime  2500", 1)
        assert edited != text
        assert table.render(edited, measured) == text

    def test_a_missing_or_unknown_marker_is_refused(self, measured):
        text = table.REPORT_PATH.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match="generated blocks"):
            table.render(text.replace("<!-- table:E6b -->\n", "", 1), measured)
        with pytest.raises(ValueError, match="generated blocks"):
            table.render(text.replace("table:E6b", "table:E6c"), measured)


def _throwaway_run(seed: int = 0):
    return [{"seed": seed, "square": seed * seed, "stopwatch_ms": 12.5}]


def _throwaway_verdict(rows):
    check(rows[0]["square"] == rows[0]["seed"] ** 2, "not a square")
    return f"holds ({rows[0]['seed']} squared is {rows[0]['square']})"


def test_adding_an_experiment_is_one_row(monkeypatch, capsys, tmp_path):
    """A throw-away row lists, runs, sweeps and reports with no other edit
    than its ``<!-- table:ID -->`` section in the document."""
    row = Experiment("E99", "nowhere", "seeds have squares", _throwaway_run,
                     _throwaway_verdict, wall=("stopwatch_ms",))
    monkeypatch.setattr(table, "EXPERIMENTS", [*table.EXPERIMENTS, row])
    assert row.name == "test_experiments" and row.seeded

    assert experiments_main(["prog"]) == 0
    assert "test_experiments E99" in capsys.readouterr().out
    assert experiments_main(["prog", "E99"]) == 0
    out = capsys.readouterr().out
    assert "E99 (nowhere): seeds have squares" in out
    assert "verdict: holds (0 squared is 0)" in out

    outcomes = sweep.run_sweep(["E99"], [3, 4], max_workers=1)
    assert [(o["experiment"], o["seed"], o["verdict"]) for o in outcomes] == [
        ("E99", 3, "holds (3 squared is 9)"), ("E99", 4, "holds (4 squared is 16)")]

    # The report, on a table of this row alone (the full one costs ~15 s).
    document = tmp_path / "EXPERIMENTS.md"
    document.write_text("## E99\n\n<!-- table:E99 -->\n\n<!-- /table:E99 -->\n\n"
                        "hand-written\n\n<!-- summary -->\n\n<!-- /summary -->\n")
    monkeypatch.setattr(table, "EXPERIMENTS", [row])
    monkeypatch.setattr(table, "REPORT_PATH", document)
    assert experiments_main(["prog", "report"]) == 0
    assert "rewritten" in capsys.readouterr().out
    assert document.read_text() == (
        "## E99\n\n<!-- table:E99 -->\n```\n"
        "seed  square\n------------\n0     0\n"  # the wall column is dropped
        "```\n\n**Verdict:** holds (0 squared is 0)\n<!-- /table:E99 -->\n\n"
        "hand-written\n\n<!-- summary -->\n"
        "| Id | Paper | Claim | Verdict |\n|---|---|---|---|\n"
        "| E99 | nowhere | seeds have squares | holds (0 squared is 0) |\n"
        "<!-- /summary -->\n")
    assert experiments_main(["prog", "report"]) == 0
    assert "up to date" in capsys.readouterr().out


class TestFigure1Harness:
    def test_series_rows_cover_all_years(self):
        assert judged("F1", seed=1).startswith("reproduced")

    def test_claims_pass(self):
        assert "first article 1993" in judged("F1b", seed=1)


class TestDiscoveryHarness:
    def test_small_run_shapes(self):
        verdict = judged("E2", sizes=(6, 12), churn_rates=(0.0, 0.02), seed=1)
        assert verdict.startswith("holds (6 -> 12 suppliers")

    def test_mirroring_divides_the_directory_load(self, measured):
        # What E2b's verdict cannot see from its own table: one mirror is
        # E2's centralized run, message for message.
        one = measured["E2b"][0][0]
        central = exp_discovery.run_centralized(exp_discovery.MIRROR_SUPPLIERS, 0.0)
        assert (one["mirrors"], one["answered"], one["messages"]) == (
            1, central["answered"], central["messages"])
        with pytest.raises(ShapeError, match="E2b: 3 mirror"):
            ROWS["E2b"].judge(broken(measured, "E2b", 3, "consistent", False))


class TestSpatialHarness:
    def test_spatial_beats_logical(self):
        assert judged("E3", n_users=50, seed=1).startswith("holds")


class TestDegradationHarness:
    def test_ordering(self, measured):
        with pytest.raises(ShapeError, match="E4: delivered quality"):
            ROWS["E4"].judge(broken(measured, "E4", "static", "mean_quality", 0.9))


class TestRoutingHarness:
    def test_energy_aware_wins(self):
        assert judged("E5", seed=1).startswith("holds")

    def test_table_free_routing_matches_shortest_hop_on_a_void_free_grid(self):
        assert "geographic matches shortest-hop" in judged("E5b", seed=1)


class TestTransactionsHarness:
    def test_all_paradigms_deliver(self, measured):
        with pytest.raises(ShapeError, match="E6: tuple-space delivered 199 of 200"):
            ROWS["E6"].judge(broken(measured, "E6", "tuple-space", "delivered", 199))


class TestSchedulingHarness:
    def test_edf_beats_fifo(self):
        assert judged("E7", utilizations=(0.7, 0.9, 1.2)).startswith("holds")


class TestHandoffHarness:
    def test_handoff_reduces_failures(self):
        assert judged("E7b", seed=1).startswith("holds")


class TestRecoveryHarness:
    def test_durability_and_monotonicity(self, measured):
        assert judged("E8", intervals=(50, 10**9), seed=1).startswith("holds")
        with pytest.raises(ShapeError, match="E8: checkpoint every 25: VIOLATED"):
            ROWS["E8"].judge(broken(measured, "E8", 25, "durability", "VIOLATED"))


class TestInteropHarness:
    def test_markup_costs_more(self, measured):
        with pytest.raises(ShapeError, match="E9: bytes per call"):
            ROWS["E9"].judge(broken(measured, "E9", "sml", "bytes_per_call", 250.0))

    def test_bridge_lossless(self, measured):
        with pytest.raises(ShapeError, match="E9b: the bridge lost 1 events"):
            ROWS["E9b"].judge(broken(measured, "E9b", 50, "loss", 1))


class TestMilanHarness:
    def test_milan_beats_all_on(self):
        assert judged("E10", seed=1).startswith("holds (4.00x vs all-on")

    def test_ablation_consistent(self):
        assert judged("E10b", caps=(4, 64)).endswith("at every cap, 4/64)")

    def test_state_schedule_cycles(self):
        assert exp_milan._state_at(0.0) == "rest"
        assert exp_milan._state_at(150.0) == "exercise"
        assert exp_milan._state_at(310.0) == "distress"
        assert exp_milan._state_at(exp_milan.SCHEDULE_PERIOD_S) == "rest"


class TestAdaptationHarness:
    def test_uptime_high(self):
        assert judged("E11", state="rest").endswith("uptime 87.5%)")
        assert judged("E11", state="exercise").endswith("uptime 24.7%)")

    def test_event_log_structure(self, measured):
        rows = measured["E11"][0]
        assert rows[-1]["event"] == "SUMMARY"
        assert any(row["event"].startswith("leave") for row in rows)
        with pytest.raises(ShapeError, match="E11: join ecg at 15.1 s broke QoS"):
            ROWS["E11"].judge(broken(measured, "E11", "join ecg",
                                     "satisfied_after", False))


class TestNetIndepHarness:
    """E12's rows are pinned where every table's are: in ``EXPERIMENTS.md``."""

    def test_all_stacks_complete(self, measured):
        with pytest.raises(ShapeError, match="E12: ethernet-10M completed 99 of 100"):
            ROWS["E12"].judge(broken(measured, "E12", "ethernet-10M", "calls_ok", 99))

    def test_retransmit_helps_latency(self, measured):
        with pytest.raises(ShapeError, match="E12b: link-layer retransmission"):
            ROWS["E12b"].judge(broken(measured, "E12b", "retries=8",
                                      "mean_latency_ms", 600.0))


class TestExperimentsCli:
    def test_listing(self, capsys):
        assert experiments_main(["prog"]) == 0
        out = capsys.readouterr().out
        for row in table.EXPERIMENTS:
            assert row.name in out and row.id in out

    def test_unknown_name(self, capsys):
        assert experiments_main(["prog", "nope"]) == 2

    def test_runs_fast_experiment(self, capsys):
        assert experiments_main(["prog", "degradation"]) == 0
        out = capsys.readouterr().out
        assert "E4" in out and "degrading" in out
        assert "verdict: holds (4.8x the quality of a static binding" in out
        assert experiments_main(["prog", "exp_transactions"]) == 0
        assert "E6b (§3.10)" in capsys.readouterr().out

    def test_a_failed_verdict_is_the_exit_status(self, monkeypatch, capsys):
        def never(rows):
            raise ShapeError("out of shape")

        row = Experiment("E98", "nowhere", "never holds", _throwaway_run, never)
        monkeypatch.setattr(table, "EXPERIMENTS", [row])
        assert experiments_main(["prog", "all"]) == 1
        assert "verdict: FAILED E98: out of shape" in capsys.readouterr().err
