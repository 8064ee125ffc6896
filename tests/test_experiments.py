"""Smoke tests for the experiment harnesses (fast configurations).

The benchmarks run the full-size experiments; these tests run reduced
configurations so `pytest tests/` exercises every harness path and asserts
the claim-shape each experiment exists to show.
"""

import pytest

from repro.experiments import format_table
from repro.experiments import (
    exp_adaptation,
    exp_degradation,
    exp_discovery,
    exp_figure1,
    exp_handoff,
    exp_interop,
    exp_milan,
    exp_netindep,
    exp_recovery,
    exp_routing,
    exp_scheduling,
    exp_spatial,
    exp_transactions,
)
from repro.experiments.__main__ import EXPERIMENTS, main as experiments_main


class TestFormatTable:
    def test_renders_columns(self):
        table = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}], "t")
        assert table.splitlines()[0] == "t"
        assert "0.1235" in table  # 4 significant digits

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], "t")


class TestFigure1Harness:
    def test_series_rows_cover_all_years(self):
        rows = exp_figure1.run(seed=1)
        assert [row["year"] for row in rows] == list(range(1989, 2002))

    def test_claims_pass(self):
        claims = {row["claim"]: row["measured"] for row in exp_figure1.run_claims(seed=1)}
        assert claims["first middleware article"] == "1993"


class TestDiscoveryHarness:
    def test_small_run_shapes(self):
        rows = exp_discovery.run(sizes=(6,), churn_rates=(0.0,), seed=1)
        assert len(rows) == 3  # centralized + two distributed variants
        for row in rows:
            assert row["answered"] >= row["lookups"] - 2
        central = next(r for r in rows if r["mode"] == "centralized")
        flood = next(r for r in rows if r["mode"] == "distributed")
        assert flood["messages"] > central["messages"]

    def test_mirroring_divides_the_directory_load(self):
        one, three = exp_discovery.run_mirrored()
        assert (one["mirrors"], three["mirrors"]) == (1, 3)
        # One mirror is E2's centralized run, message for message.
        central = exp_discovery.run_centralized(30, 0.0)
        assert (one["answered"], one["messages"]) == (
            central["answered"], central["messages"])
        for row in (one, three):
            assert row["answered"] >= row["lookups"] - 2  # in flight at the end
            assert row["consistent"] is True
        assert three["max_lookups_served"] * 2 < one["max_lookups_served"]
        assert three["messages"] > one["messages"]  # replication is not free


class TestSpatialHarness:
    def test_spatial_beats_logical(self):
        rows = exp_spatial.run(n_users=50, seed=1)
        by_mode = {row["mode"]: row for row in rows}
        assert by_mode["spatial"]["mean_walk_m"] < by_mode["logical-only"]["mean_walk_m"]


class TestDegradationHarness:
    def test_ordering(self):
        rows = exp_degradation.run()
        qualities = [row["mean_quality"] for row in rows]
        assert qualities == sorted(qualities)  # static < rebind < degrading


class TestRoutingHarness:
    def test_energy_aware_wins(self):
        rows = exp_routing.run(alphas=(2.0,), seed=1)
        by_router = {row["router"]: row for row in rows}
        assert (by_router["energy-aware(a=2)"]["source_cut_off_s"]
                >= by_router["shortest-hop"]["source_cut_off_s"])
        assert (by_router["shortest-hop"]["source_cut_off_s"]
                > by_router["flooding"]["source_cut_off_s"])

    def test_table_free_routing_matches_shortest_hop_on_a_void_free_grid(self):
        hop, geographic, diffusion = exp_routing.run_tablefree()
        assert (hop["router"], geographic["router"]) == ("shortest-hop",
                                                         "geographic")
        for column in ("delivered", "source_cut_off_s", "energy_left_j"):
            assert geographic[column] == hop[column]
        assert diffusion["router"] == "data-centric"
        assert 0 < diffusion["delivered"] <= diffusion["source_cut_off_s"]


class TestTransactionsHarness:
    def test_all_paradigms_deliver(self):
        rows = exp_transactions.run()
        assert all(row["delivered"] == exp_transactions.N_ITEMS for row in rows)
        assert len({row["paradigm"] for row in rows}) == 7


class TestSchedulingHarness:
    def test_edf_beats_fifo(self):
        rows = exp_scheduling.run(utilizations=(0.8,))
        by_policy = {row["policy"]: row for row in rows if row["utilization"] == 0.8}
        assert by_policy["edf"]["miss_rate"] < by_policy["fifo"]["miss_rate"]


class TestHandoffHarness:
    def test_handoff_reduces_failures(self):
        rows = exp_handoff.run(seed=1)
        by_mode = {row["handoff"]: row for row in rows}
        assert by_mode["on"]["failed_calls"] <= by_mode["off"]["failed_calls"]
        assert by_mode["on"]["handoffs_initiated"] >= 1


class TestRecoveryHarness:
    def test_durability_and_monotonicity(self):
        rows = exp_recovery.run(intervals=(50, 10**9), seed=1)
        assert all(row["durability"] == "100%" for row in rows)
        assert rows[0]["records_scanned"] < rows[1]["records_scanned"]


class TestInteropHarness:
    def test_markup_costs_more(self):
        rows = exp_interop.run()
        by_codec = {row["codec"]: row for row in rows}
        assert (by_codec["sml"]["bytes_per_call"]
                > by_codec["binary"]["bytes_per_call"])

    def test_bridge_lossless(self):
        row = exp_interop.run_bridge()
        assert row["loss"] == 0


class TestMilanHarness:
    def test_milan_beats_all_on(self):
        rows = exp_milan.run(seed=1)
        by_policy = {row["policy"]: row for row in rows}
        assert (by_policy["milan-max-lifetime"]["lifetime_s"]
                > 2 * by_policy["all-on"]["lifetime_s"])

    def test_ablation_consistent(self):
        rows = exp_milan.run_ablation(caps=(4, 64))
        assert rows[0]["smallest_set"] == rows[1]["smallest_set"]

    def test_state_schedule_cycles(self):
        assert exp_milan._state_at(0.0) == "rest"
        assert exp_milan._state_at(150.0) == "exercise"
        assert exp_milan._state_at(310.0) == "distress"
        assert exp_milan._state_at(exp_milan.SCHEDULE_PERIOD_S) == "rest"


class TestAdaptationHarness:
    def test_uptime_high(self):
        assert exp_adaptation.qos_uptime() > 0.8

    def test_event_log_structure(self):
        rows = exp_adaptation.run()
        assert rows[-1]["event"] == "SUMMARY"
        assert any(row["event"].startswith("leave") for row in rows)


def e12_rows(rows):
    return [(row["stack"], row["calls_ok"], row["calls_failed"],
             row["mean_latency_ms"], row["bytes_on_wire"]) for row in rows]


class TestNetIndepHarness:
    """The literals were recorded at ``9aacfe0``, before every row built
    its stack through ``build_stack``: the same transports, so the same rows."""

    def test_all_stacks_complete(self):
        assert e12_rows(exp_netindep.run()) == [
            ("in-memory", 100, 0, 0.2, "n/a"),
            ("ethernet-10M", 100, 0, 1.134, 200),
            ("802.11+reliable", 100, 0, 6.149, 24456),
            ("bluetooth+reliable", 100, 0, 13.025, 24275),
        ]

    def test_retransmit_helps_latency(self):
        rows = exp_netindep.run_retransmit_ablation()
        assert e12_rows(rows) == [
            ("no-retransmit", 100, 0, 603.977, 32875),
            ("retries=2", 100, 0, 97.033, 35626),
            ("retries=8", 100, 0, 80.005, 37145),
            ("retries=8,backoff=1", 100, 0, 54.005, 36982),
        ]
        by_policy = {row["stack"]: row for row in rows}
        assert (by_policy["retries=8"]["mean_latency_ms"]
                < by_policy["no-retransmit"]["mean_latency_ms"])


class TestExperimentsCli:
    def test_listing(self, capsys):
        assert experiments_main(["prog"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_name(self, capsys):
        assert experiments_main(["prog", "nope"]) == 2

    def test_runs_fast_experiment(self, capsys):
        assert experiments_main(["prog", "degradation"]) == 0
        out = capsys.readouterr().out
        assert "E4" in out and "degrading" in out
