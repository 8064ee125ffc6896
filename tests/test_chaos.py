"""Tests for the chaos campaign engine (E13).

Campaigns here use the short "smoke" timeline (40 virtual seconds) so the
whole file runs in seconds; the full-length acceptance grid is the
experiment CLI's job (``python -m repro.experiments.exp_chaos``).
"""

import functools
import inspect
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.experiments import exp_chaos, table

pytestmark = pytest.mark.chaos
from repro.netsim import topology
from repro.netsim.chaos import (
    FAULT_MIXES,
    CampaignSpec,
    ChaosCampaign,
    run_campaign,
    scorecard_bytes,
)
from repro.netsim.failures import FailureInjector
from repro.workloads.mixes import COMPOSABLE_MIXES, MIXES, Mix

#: Short-campaign overrides, mirroring the CLI's ``--smoke`` grid: the
#: 40s duration still leaves room for the slowest retransmission chain
#: after the last send, so the timer-leak invariant stays meaningful.
SHORT = dict(
    duration_s=40.0,
    heal_deadline_s=24.0,
    fault_start_s=5.0,
    bulk_messages=60,
    transfer_stop_s=22.0,
)


@functools.lru_cache(maxsize=None)
def short_campaign_at_seed0(mix):
    """One run per mix, shared by the invariant and the golden test."""
    return run_campaign(mix, 0, **SHORT)


class TestCampaignSpec:
    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(mix="meteor-strike", seed=0)

    def test_duration_must_outlive_heal_deadline(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(mix="churn", seed=0, duration_s=30.0,
                         heal_deadline_s=30.0)

    def test_overrides_flow_through_run_campaign(self):
        scorecard = run_campaign("churn", 0, **SHORT)
        assert scorecard["duration_s"] == 40.0
        assert scorecard["delivery"]["sent"] == 60

    def test_the_spec_has_the_seven_fields_some_caller_sets(self):
        """``mix``, ``seed`` and what ``SHORT`` / ``--smoke`` / the
        benchmark's smoke size override; the rest are module constants."""
        names = list(CampaignSpec.__slots__)
        assert names == ["mix", "seed", "duration_s", "fault_start_s",
                         "heal_deadline_s", "bulk_messages", "transfer_stop_s"]
        assert list(inspect.signature(CampaignSpec).parameters) == names
        assert set(SHORT) == set(names[2:])

    def test_one_table_maps_a_mix_name_to_behaviour(self):
        """Grid order of ``exp_chaos`` and the CI artifact is table order;
        the composable mixes are the rows with a compose form."""
        assert FAULT_MIXES == tuple(MIXES) == (
            "churn", "partition", "corrupt", "failover", "flashcrowd")
        assert COMPOSABLE_MIXES == ("churn", "partition", "corrupt")
        for name, row in MIXES.items():
            assert issubclass(row, Mix) and row.storm is not Mix.storm, name


class TestInvariants:
    @pytest.mark.parametrize("mix", FAULT_MIXES)
    def test_short_campaign_passes_all_invariants(self, mix):
        scorecard = short_campaign_at_seed0(mix)
        assert scorecard["ok"], scorecard["violations"]
        invariants = scorecard["invariants"]
        assert invariants["no_timer_leaks"]
        assert invariants["exactly_once_delivery"]
        assert invariants["reconverged"]
        assert invariants["transactions_atomic"]
        assert invariants["heartbeat_exact"]
        assert scorecard["ledger"]["conserved"]

    @pytest.mark.parametrize("mix", FAULT_MIXES)
    def test_short_campaign_matches_its_golden(self, mix, check_golden):
        """The scorecards ROADMAP calls the behavioural contract, pinned
        as files like the workload goldens (``--update-golden`` rewrites
        them)."""
        check_golden(f"chaos__{mix}__seed0", short_campaign_at_seed0(mix))

    def test_churn_campaign_injects_and_detects_crashes(self):
        scorecard = run_campaign("churn", 1, **SHORT)
        assert scorecard["ok"], scorecard["violations"]
        assert scorecard["faults"]["crashes"] >= 3
        heartbeat = scorecard["heartbeat"]
        assert heartbeat["episodes"] >= 3
        assert heartbeat["detected"] == heartbeat["episodes"]
        assert heartbeat["missed"] == 0

    def test_corrupt_campaign_exercises_the_hardened_decode_paths(self):
        scorecard = run_campaign("corrupt", 0, **SHORT)
        assert scorecard["ok"], scorecard["violations"]
        faults = scorecard["faults"]
        assert faults["frames_corrupted"] + faults["frames_truncated"] > 0
        # Corrupted frames are counted and dropped, never raised.
        assert scorecard["malformed_frames"] > 0

    def test_corrupt_campaign_counts_every_endpoint_drop(self):
        """Every message endpoint counts its drops in ``malformed_frames``:
        the discovery, RPC and heartbeat endpoints each see some, and the
        scorecard total, summed from the attributes, is what it always
        was."""
        campaign = ChaosCampaign(CampaignSpec("corrupt", 0))
        scorecard = campaign.run()
        nodes = campaign.nodes.values()
        dropped = [sum(e.malformed_frames for e in endpoints) for endpoints in (
            [n.discovery for n in nodes], [n.rpc for n in nodes],
            campaign.detectors.values())]
        assert dropped == [41, 5, 3]
        assert scorecard["malformed_frames"] == 534

    def test_partition_campaign_drops_at_the_reachability_filter(self):
        scorecard = run_campaign("partition", 0, **SHORT)
        assert scorecard["ok"], scorecard["violations"]
        assert scorecard["medium"]["drops_partitioned"] > 0
        assert scorecard["faults"]["partitions"] >= 1

    def test_failover_campaign_reelects_and_keeps_acked_transfers(self):
        scorecard = run_campaign("failover", 0, **SHORT)
        assert scorecard["ok"], scorecard["violations"]
        repl = scorecard["replication"]
        # The crashed initial primary (n2_1) must not hold office at the
        # end; a survivor took over at a higher term, and the recovered
        # member was fenced into adopting it.
        assert repl["primary"] == "n1_1"
        assert all(term >= 2 for term in repl["terms"].values())
        assert repl["election_rounds"] >= 1
        assert repl["conserved"] is True
        transfers = repl["transfers"]
        assert transfers["acked"] > 0
        assert transfers["applied"] >= transfers["acked"]
        applied = set(repl["applied_index"].values())
        assert len(applied) == 1  # every member converged

    def test_non_failover_mixes_have_no_replication_section(self):
        scorecard = run_campaign("churn", 0, **SHORT)
        assert scorecard["replication"] is None
        assert scorecard["invariants"]["replication_failover"] is True


class TestOutagesFromTheInjectorLog:
    """``heartbeat_exact`` is judged against the outages the injector
    logged, not a list the campaign keeps beside it: hand-scheduled
    injections ``(node, crash_at, downtime)`` and the outages they are."""

    @pytest.mark.parametrize("injections,outages", [
        pytest.param([("n0_1", 2.0, 3.0)], [("n0_1", 2.0, 5.0)], id="plain"),
        pytest.param([("n0_1", 2.0, 3.0), ("n0_1", 3.0, 3.0)],
                     [("n0_1", 2.0, 6.0)], id="nested-double-crash"),
        pytest.param([("n0_1", 2.0, 3.0), ("n0_1", 3.5, 0.0)],
                     [("n0_1", 2.0, 5.0)], id="blip-inside-a-crash"),
        pytest.param([("n0_1", 2.0, 0.0)], [], id="lone-blip"),
        pytest.param([("n0_1", 6.0, 2.0), ("n1_0", 2.5, 1.0),
                      ("n0_1", 2.0, 1.0)],
                     [("n0_1", 2.0, 3.0), ("n0_1", 6.0, 8.0),
                      ("n1_0", 2.5, 3.5)], id="disjoint-outages-of-one-node"),
    ])
    def test_log_derived_outages_match_what_was_scheduled(
            self, injections, outages):
        network = topology.grid(2, 2, spacing=60.0, seed=0)
        injector = FailureInjector(network, seed=0)
        for node_id, crash_at, downtime in injections:
            injector.crash_and_recover(node_id, crash_at, downtime)
        network.sim.run_until(10.0)
        episodes = ChaosCampaign._merged_episodes(
            SimpleNamespace(injector=injector))
        assert sorted(tuple(getattr(e, name) for name in e.__slots__)
                      for e in episodes) == outages
        assert all(network.node(n).alive for n, _, _ in injections)


class TestDeterminism:
    def test_same_seed_same_mix_byte_identical_scorecard(self):
        first = scorecard_bytes(run_campaign("corrupt", 3, **SHORT))
        second = scorecard_bytes(run_campaign("corrupt", 3, **SHORT))
        assert first == second

    def test_failover_scorecard_is_byte_identical(self):
        first = scorecard_bytes(run_campaign("failover", 2, **SHORT))
        second = scorecard_bytes(run_campaign("failover", 2, **SHORT))
        assert first == second

    def test_different_seeds_differ(self):
        a = scorecard_bytes(run_campaign("churn", 0, **SHORT))
        b = scorecard_bytes(run_campaign("churn", 1, **SHORT))
        assert a != b


class TestExperimentHarness:
    def test_run_one_row_shape(self):
        row = exp_chaos.run_one("churn", 0, **SHORT)
        assert row["mix"] == "churn"
        assert row["ok"] is True
        assert row["violations"] == 0
        assert 0.0 < row["delivery_ratio"] <= 1.0
        assert "/" in row["hb_detected"]

    def test_chaos_is_sweepable(self):
        (row,) = table.find("chaos")
        assert (row.id, row.seeded) == ("E13", True)

    def test_cli_smoke_exits_zero(self, tmp_path):
        out = tmp_path / "scorecards.json"
        code = exp_chaos.main(
            ["--smoke", "--seeds", "0", "--mixes", "churn",
             "--json", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_cli_rejects_unknown_mix(self):
        assert exp_chaos.main(["--mixes", "nope"]) == 2


class TestFlashCrowd:
    """The overload-protection mix: load injection instead of faults."""

    def test_protection_engages_and_recovers(self):
        scorecard = run_campaign("flashcrowd", 0, **SHORT)
        assert scorecard["ok"], scorecard["violations"]
        assert scorecard["invariants"]["overload_protected"]
        overload = scorecard["overload"]
        crowd = overload["crowd"]
        # The spike genuinely oversubscribes admission: some crowd calls
        # go through, most are refused, and nothing is silently lost.
        assert crowd["refused"] > crowd["ok"] > 0
        assert crowd["failed"] == 0
        assert crowd["attempted"] == crowd["ok"] + crowd["refused"]
        assert overload["admission"]["rejected"] == crowd["refused"]
        # Admitted requests stay fast: no collapse behind the shed load.
        assert crowd["p99_s"] is not None
        assert crowd["p99_s"] <= 1.0
        assert crowd["p50_s"] <= crowd["p95_s"] <= crowd["p99_s"]
        # The governor saw the spike and fully de-escalated afterwards.
        governor = overload["governor"]
        assert governor["escalations"] >= 1
        assert governor["max_level"] >= 1
        assert governor["final_level"] == 0

    def test_pacer_memory_is_bounded_and_drains(self):
        scorecard = run_campaign("flashcrowd", 0, **SHORT)
        pacer = scorecard["overload"]["pacer"]
        assert pacer["queued"] > 0  # backlog actually formed
        assert pacer["max_depth"] <= 16  # the configured queue bound
        assert pacer["final_depth"] == 0  # and fully drained
        # Shedding above the pacer never creates retransmit state, so the
        # exactly-once invariant holds alongside the bounded queue.
        assert scorecard["invariants"]["exactly_once_delivery"]
        assert scorecard["invariants"]["no_timer_leaks"]

    def test_degradation_honors_the_qos_floor(self):
        scorecard = run_campaign("flashcrowd", 0, **SHORT)
        milan = scorecard["overload"]["milan"]
        assert milan["reconfigurations"] >= 1
        assert milan["floor_violations"] == 0
        # The lowest requirement ever applied stays at or above the
        # weakest per-variable floor (0.4 in the mix's _QOS_FLOOR).
        assert milan["min_requirement"] >= 0.4
        assert milan["min_requirement"] < 1.0  # degradation really happened

    def test_scorecard_is_byte_identical(self):
        first = scorecard_bytes(run_campaign("flashcrowd", 4, **SHORT))
        second = scorecard_bytes(run_campaign("flashcrowd", 4, **SHORT))
        assert first == second

    def test_other_mixes_have_no_overload_section(self):
        scorecard = run_campaign("churn", 0, **SHORT)
        assert scorecard["overload"] is None
        assert scorecard["invariants"]["overload_protected"] is True
