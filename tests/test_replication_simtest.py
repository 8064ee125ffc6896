"""The replicated primary-kill simtest world (repro.simtest.replicated)."""

import functools

import pytest

import repro.simtest.replicated as replicated
from repro.simtest import __main__ as simtest_cli
from repro.simtest.replicated import (
    FAILOVER_BOUND_S,
    PRIMARY,
    run_failover,
    scorecard_bytes,
)

pytestmark = pytest.mark.simtest

#: One seed-0 run shared by the tests that only read its scorecard.
failover_at_seed0 = functools.lru_cache(maxsize=None)(lambda: run_failover(0))


class TestPrimaryKill:
    def test_run_is_clean_and_failover_is_bounded(self):
        scorecard = failover_at_seed0()
        assert scorecard["ok"], scorecard["divergences"]
        failover = scorecard["failover"]
        assert failover["new_primary"] not in (None, PRIMARY)
        assert failover["latency_s"] is not None
        assert failover["latency_s"] <= FAILOVER_BOUND_S
        # The deposed primary recovered, was fenced, and adopted the term.
        assert failover["terms"][PRIMARY] >= 2

    def test_histories_are_checked_and_acked_transfers_applied(self):
        scorecard = run_failover(1)
        assert scorecard["ok"], scorecard["divergences"]
        assert scorecard["stats"]["lin_objects"] >= 3
        assert scorecard["stats"]["lin_aborted"] == 0 \
            if "lin_aborted" in scorecard["stats"] else True
        # acked-is-applied: the end-state machine holds every acked txid.
        assert scorecard["ledger"]["applied"] >= scorecard["ledger"]["acked"]
        balances = scorecard["ledger"]["balances"]
        assert sum(balances.values()) == 4000

    def test_scorecard_matches_its_golden(self, check_golden):
        check_golden("failover__seed0", failover_at_seed0())

    def test_failover_slower_than_the_bound_is_a_divergence(self, monkeypatch):
        """Seed 0 fails over in 2.0 s. Against a 1 s bound the probes
        (which run to bound + 2 s) still find the new primary, and the
        oracle used to ask only whether any probe had."""
        monkeypatch.setattr(replicated, "FAILOVER_BOUND_S", 1.0)
        scorecard = run_failover(0)
        assert scorecard["failover"]["latency_s"] == 2.0
        assert not scorecard["ok"]
        assert [(d["oracle"], d["kind"]) for d in scorecard["divergences"]] \
            == [("failover", "bound-exceeded")]


class TestDeterminism:
    def test_reruns_are_byte_identical(self):
        first = scorecard_bytes(run_failover(2))
        second = scorecard_bytes(run_failover(2))
        assert first == second

    def test_different_seeds_differ(self):
        assert scorecard_bytes(failover_at_seed0()) != \
            scorecard_bytes(run_failover(1))


class TestCli:
    def test_failover_subcommand_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "failover.json"
        code = simtest_cli.main(
            ["failover", "--runs", "2", "--json", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "zero divergences" in capsys.readouterr().out
