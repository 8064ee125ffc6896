"""Workload registry conformance, golden scorecards, and integrations.

Every registered scenario must (a) be byte-deterministic in ``(name,
seed)``, (b) emit a schema-valid scorecard with every SLO field present,
and (c) match its checked-in golden at seed 0. Regenerate goldens after
an intentional behavior change with::

    PYTHONPATH=src python -m pytest tests/test_workloads.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.netsim.chaos import FAULT_MIXES
from repro.workloads import (
    ARCHETYPES,
    SCHEMA,
    TRAFFIC_MODELS,
    ScenarioRun,
    canonical_bytes,
    parse_scenario,
    parse_spec,
    run_scenario,
    scenario_names,
    validate_scorecard,
)
from repro.workloads.__main__ import golden_path
from repro.workloads.__main__ import main as workloads_main

GOLDEN_DIR = Path(__file__).parent / "golden"
ALL_SCENARIOS = scenario_names()


# ----------------------------------------------------------------- registry


def test_registry_minimum_coverage():
    assert len(ARCHETYPES) >= 4
    assert len(TRAFFIC_MODELS) >= 4
    assert len(ALL_SCENARIOS) == len(ARCHETYPES) * len(TRAFFIC_MODELS)
    assert ALL_SCENARIOS == sorted(ALL_SCENARIOS)


def test_every_archetype_declares_rate_and_slo():
    for info in ARCHETYPES.values():
        assert info.factory.rate_rps > 0
        assert info.factory.slo_target_s > 0
        assert info.description


def test_parse_scenario_rejects_unknown_and_malformed():
    with pytest.raises(ConfigurationError):
        parse_scenario("patient_fleet")  # no traffic half
    with pytest.raises(ConfigurationError):
        parse_scenario("nope:diurnal")
    with pytest.raises(ConfigurationError):
        parse_scenario("patient_fleet:nope")


def test_spec_rejects_bad_horizon():
    with pytest.raises(ConfigurationError):
        parse_spec("patient_fleet:diurnal", 0, horizon_s=0.0)


# ----------------------------------------------- determinism conformance


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_is_deterministic_and_seed_sensitive(name):
    """Same ``(name, seed)`` -> byte-identical scorecard; a different seed
    must produce a different one (the card actually depends on the seed)."""
    first = canonical_bytes(run_scenario(name, seed=0, horizon_s=12.0))
    again = canonical_bytes(run_scenario(name, seed=0, horizon_s=12.0))
    other = canonical_bytes(run_scenario(name, seed=1, horizon_s=12.0))
    assert first == again
    assert first != other


# ------------------------------------------- goldens + schema + SLO fields


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_golden_scorecard_and_schema(name, check_golden):
    card = run_scenario(name, seed=0)

    problems = validate_scorecard(card)
    assert problems == []
    for field in SCHEMA["slo"]:
        assert field in card["slo"]
    assert set(card) == set(SCHEMA[""]) | {
        section for section in SCHEMA if section
    }

    check_golden(golden_path(GOLDEN_DIR, name, 0).stem, card)


#: ``sha256(canonical_bytes(scorecard))[:16]`` at ``horizon_s=120``, five
#: times the goldens' horizon, for the three scenarios the benchmark of
#: record drives (recorded at ``19dd1f0``; equal under ``PYTHONHASHSEED`` 0,
#: 7 and random). A host-side rewrite that sums the same energy in another
#: order, or draws the same losses in another, drifts by an ulp or an event
#: that 24 s does not always reach.
LONG_HORIZON_DIGESTS = {
    ("telemetry_ledger:heavy_tail", 1): "07a9b660b2595f2d",
    ("telemetry_ledger:heavy_tail", 2): "310ad7bcb99bb01c",
    ("api_rpc:flash_crowd", 1): "5184f2e7afd0bb87",
    ("api_rpc:flash_crowd", 2): "f34df63e53d40933",
    ("chat_fanout:diurnal", 1): "a6a90561a5a648e8",
    ("chat_fanout:diurnal", 2): "b99be083afe9e3be",
}


@pytest.mark.parametrize("name,seed", sorted(LONG_HORIZON_DIGESTS))
def test_long_horizon_scorecards_are_byte_identical(name, seed):
    card = run_scenario(name, seed=seed, horizon_s=120.0)
    assert validate_scorecard(card) == []
    digest = hashlib.sha256(canonical_bytes(card)).hexdigest()[:16]
    assert digest == LONG_HORIZON_DIGESTS[name, seed]


OPEN_LOOP_SCENARIOS = [
    name for name in ALL_SCENARIOS
    if not TRAFFIC_MODELS[parse_scenario(name)[1].name].factory().closed_loop
]


def _eager_open_loop(run):
    """The test oracle: every arrival in the queue before the first event
    fires, one ``schedule_at`` each, in index order."""
    times, sizes = run.traffic.arrivals(
        run.spec.seed, run.spec.horizon_s, run.archetype.rate_rps
    )
    for index, when in enumerate(times):
        run.sim.schedule_at(when, run._issue, index, sizes)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", OPEN_LOOP_SCENARIOS)
def test_streamed_arrivals_match_the_eager_schedule(name, seed, monkeypatch):
    streamed = canonical_bytes(run_scenario(name, seed=seed, horizon_s=12.0))
    monkeypatch.setattr(ScenarioRun, "_schedule_open_loop", _eager_open_loop)
    eager = canonical_bytes(run_scenario(name, seed=seed, horizon_s=12.0))
    assert streamed == eager


def test_a_longer_horizon_queues_no_more_events():
    """The open-loop schedule streams: the queue holds one pending
    arrival, so a 100x horizon queues what the default one does."""
    def pending(horizon_s):
        run = ScenarioRun(parse_spec("api_rpc:flash_crowd", 0,
                                     horizon_s=horizon_s))
        return run.sim._live

    assert pending(24.0) == pending(2400.0)


def test_golden_directory_has_no_strays():
    """Every golden corresponds to a registered scenario, a chaos mix or
    the failover world (renames must remove the old file, not strand
    it)."""
    expected = {golden_path(GOLDEN_DIR, name, 0).name
                for name in ALL_SCENARIOS}
    expected |= {f"chaos__{mix}__seed0.json" for mix in FAULT_MIXES}
    expected.add("failover__seed0.json")
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def test_validate_scorecard_flags_broken_accounting():
    card = run_scenario("api_rpc:heavy_tail", seed=0, horizon_s=6.0)
    card["goodput"]["ok"] += 1
    assert any("accounting" in p or "arrivals" in p
               for p in validate_scorecard(card))
    del card["slo"]
    assert validate_scorecard(card)


# ----------------------------------------------------------- sweep axis


def test_workload_scenario_is_a_sweep_axis():
    from repro.experiments.sweep import merged_rows, run_sweep

    outcomes = run_sweep(["workload:api_rpc:flash_crowd"], [0, 1],
                         max_workers=1)
    rows = merged_rows(outcomes)
    assert [row["seed"] for row in rows] == [0, 1]
    for row in rows:
        assert row["scenario"] == "api_rpc:flash_crowd"
        assert row["arrivals"] > 0
        assert row["refused"] > 0  # flash crowd overruns admission control
    assert rows[0]["arrivals"] != rows[1]["arrivals"]

    with pytest.raises(ValueError):
        run_sweep(["workload:nope:diurnal"], [0], max_workers=1)


def test_workloads_axis_covers_every_scenario():
    from repro.experiments import table

    (row,) = table.find("workloads")  # the all-scenarios axis is a table row
    assert row.seeded
    assert [line["scenario"] for line in row.run(seed=0)] == scenario_names()


# ------------------------------------------------------- chaos composition


@pytest.mark.chaos
def test_chaos_mix_composes_with_scenario():
    """A composable fault mix perturbs the run deterministically: two
    chaos runs are byte-identical, and differ from the fault-free card."""
    name = "telemetry_ledger:heavy_tail"
    base = run_scenario(name, seed=0)
    first = run_scenario(name, seed=0, chaos_mix="churn")
    again = run_scenario(name, seed=0, chaos_mix="churn")

    assert canonical_bytes(first) == canonical_bytes(again)
    assert canonical_bytes(first) != canonical_bytes(base)
    assert first["faults"]["crashes"] >= 1
    assert base["faults"] == {}
    # Backup crashes never cost quorum, so the ledger stays consistent.
    assert first["archetype_detail"]["consistency_violations"] == []


@pytest.mark.chaos
def test_chaos_mix_rejects_campaign_only_mixes():
    with pytest.raises(ConfigurationError):
        run_scenario("telemetry_ledger:heavy_tail", seed=0,
                     chaos_mix="failover")


@pytest.mark.chaos
def test_a_composed_mix_with_nothing_to_hit_is_refused():
    """``chat_fanout`` declares no crash targets and no partition groups;
    ``churn`` used to crash nothing and still report that the mix ran. A
    vacuous storm is worse than an error; ``corrupt`` needs no target."""
    assert not ARCHETYPES["chat_fanout"].factory(0).fault_targets()
    with pytest.raises(ConfigurationError,
                       match=r"chat_fanout.*fault_targets\(\)"):
        run_scenario("chat_fanout:diurnal", seed=0, chaos_mix="churn")
    with pytest.raises(ConfigurationError,
                       match=r"chat_fanout.*partition_groups\(\)"):
        run_scenario("chat_fanout:diurnal", seed=0, chaos_mix="partition")


@pytest.mark.chaos
@pytest.mark.parametrize("name,arrivals,pending", [
    ("chat_fanout:flash_crowd", 124, 16),
    ("chat_fanout:diurnal", 90, 11),
])
def test_a_request_that_never_completes_is_an_slo_violation(
        name, arrivals, pending):
    """Corruption leaves these runs with requests still pending at the end;
    they used to escape the SLO (``violations: 0, met: True``)."""
    card = run_scenario(name, seed=0, chaos_mix="corrupt")
    assert card["faults"]["corrupt_windows"] == 2
    assert card["offered"]["arrivals"] == arrivals
    assert card["drops"] == {"refused": 0, "failed": 0, "pending": pending}
    slo = card["slo"]
    assert slo["violations"] == pending  # every completed request was on time
    assert slo["violation_fraction"] == round(pending / arrivals, 9)
    assert slo["met"] is False
    # ...and a card that forgets them is not a valid card.
    slo["violations"] = 0
    assert any("failed+pending" in p for p in validate_scorecard(card))


# --------------------------------------------------------- simtest worlds


@pytest.mark.simtest
def test_chat_scenario_history_is_linearizable():
    from repro.simtest.workloads import check_scenario

    result = check_scenario("chat_fanout:heavy_tail", seed=0, horizon_s=12.0)
    assert result["violations"] == []
    assert result["operations"] > 0
    assert result["objects"] > 1  # one object per message tuple


@pytest.mark.simtest
def test_ledger_scenario_history_is_linearizable():
    from repro.simtest.workloads import check_scenario

    result = check_scenario("telemetry_ledger:heavy_tail", seed=0,
                            horizon_s=8.0)
    assert result["violations"] == []
    assert result["objects"] == 1  # the single replicated ledger


@pytest.mark.simtest
def test_history_recording_does_not_change_the_scorecard():
    """``record_history`` must be pure observation: the card with history
    on is byte-identical to the card with it off."""
    for name in ("chat_fanout:heavy_tail", "telemetry_ledger:heavy_tail"):
        plain = run_scenario(name, seed=0, horizon_s=8.0)
        recorded = run_scenario(name, seed=0, horizon_s=8.0,
                                record_history=True)
        assert canonical_bytes(plain) == canonical_bytes(recorded)


@pytest.mark.simtest
def test_historyless_scenario_is_rejected_as_simtest_world():
    from repro.simtest.workloads import check_scenario

    with pytest.raises(ConfigurationError):
        check_scenario("api_rpc:heavy_tail", seed=0, horizon_s=6.0)


@pytest.mark.simtest
def test_simtest_scenario_cli_exit_codes(monkeypatch, capsys):
    """``python -m repro.simtest scenario``: 0 when every seed is clean, 1
    on a violation, 2 on a scenario that records no history."""
    import repro.simtest.workloads as simtest_workloads
    from repro.simtest.__main__ import main as simtest_main

    assert simtest_main(["scenario", "chat_fanout:heavy_tail",
                         "--seeds", "0-1"]) == 0
    assert "seed=1 ok" in capsys.readouterr().out
    assert simtest_main(["scenario", "api_rpc:heavy_tail"]) == 2
    monkeypatch.setattr(simtest_workloads, "check_scenario", lambda name, seed: {
        "objects": 1, "operations": 2, "violations": ["ledger: lost write"]})
    assert simtest_main(["scenario", "telemetry_ledger:heavy_tail",
                         "--seed", "3"]) == 1
    assert "seed=3 VIOLATED" in capsys.readouterr().out


# ------------------------------------------------------------------- CLI


def test_cli_list_shows_registry(capsys):
    assert workloads_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ARCHETYPES:
        assert name in out
    for name in TRAFFIC_MODELS:
        assert name in out
    assert f"scenarios ({len(ALL_SCENARIOS)})" in out


def test_cli_run_writes_scorecard(tmp_path, capsys):
    out_file = tmp_path / "card.json"
    code = workloads_main([
        "run", "patient_fleet:heavy_tail", "--seed", "0",
        "--horizon", "6.0", "--json", str(out_file),
    ])
    assert code == 0
    card = json.loads(out_file.read_text())
    assert card["scenario"] == "patient_fleet:heavy_tail"
    assert validate_scorecard(card) == []
    assert json.loads(capsys.readouterr().out) == card


def test_cli_smoke_detects_golden_mismatch(tmp_path, capsys):
    # A golden directory with one corrupted entry must fail the smoke.
    bad_dir = tmp_path / "golden"
    bad_dir.mkdir()
    for name in ALL_SCENARIOS:
        card = json.loads(
            golden_path(GOLDEN_DIR, name, 0).read_text()
        )
        if name == "api_rpc:diurnal":
            card["goodput"]["ok"] += 1
        golden_path(bad_dir, name, 0).write_text(
            json.dumps(card, sort_keys=True, indent=2) + "\n"
        )
    code = workloads_main(["smoke", "--seed", "0", "--golden", str(bad_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "api_rpc:diurnal" in captured.err

    code = workloads_main(
        ["smoke", "--seed", "0", "--golden", str(GOLDEN_DIR)]
    )
    assert code == 0
