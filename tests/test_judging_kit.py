"""The judging kit under the three harnesses, each part tested once.

One op :class:`History`, one Wing–Gong :func:`replay`, one replica-group
check, one canonical encoder: the chaos campaign, the simtest worlds and
the workload scenarios all judge a run through them. These tests pin the
kit itself, that every harness surfaces what the kit finds, and — by grep —
that a second copy of any part cannot creep back.
"""

import ast
import functools
import importlib.util
import inspect
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.netsim.chaos as chaos
import repro.simtest.oracles as oracles
import repro.simtest.replicated as replicated
import repro.workloads.archetypes.telemetry as telemetry
import repro.workloads.mixes as mixes
from repro.errors import ConfigurationError
from repro.obs.export import canonical_json
from repro.obs.history import History
from repro.replication.check import check_group, close_group, group_summary
from repro.replication.services import KVMachine, LedgerMachine
from repro.simtest.explorer import scenario_for_iteration
from repro.simtest.oracles import replay
from repro.simtest.workloads import check_scenario
from repro.simtest.world import SimWorld
from repro.util.promise import Promise
from repro.workloads import ScenarioRun, parse_spec, run_scenario
from repro.workloads.campaign import ACCOUNTS as WORLD_ACCOUNTS, INITIAL_BALANCE
from repro.workloads.registry import Archetype
from tests import e2e_workloads
from tests.test_chaos import SHORT

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ACCOUNTS = {"a": 60, "b": 40}


# ------------------------------------------------------- replica-group check


class FakeReplica(SimpleNamespace):
    def close(self):
        self.closed = True


def ledger_group():
    """A sound hand-built group: ``n2`` primary at term 2, every member
    applied the one acked transfer."""
    members = {}
    for node in ("n0", "n1", "n2"):
        machine = LedgerMachine(ACCOUNTS)
        machine.apply("transfer", ("t0", "a", "b", 5))
        members[node] = FakeReplica(
            role="primary" if node == "n2" else "backup", term=2,
            applied_index=1, machine=machine, closed=False,
        )
    return members


def kinds(findings):
    return [invariant for invariant, _detail in findings]


class TestCheckGroup:
    def check(self, members, failed_over=True, acked=frozenset({"t0"})):
        return check_group(members, acked, expected_total=100,
                           failed_over=failed_over)

    def test_sound_group_has_no_findings(self):
        assert self.check(ledger_group()) == []

    def test_two_primaries(self):
        members = ledger_group()
        members["n0"].role = "primary"
        findings = self.check(members)
        assert kinds(findings) == ["primary-count"]
        assert "['n0', 'n2']" in findings[0][1]
        assert group_summary(members)["primary"] is None

    def test_no_primary(self):
        members = ledger_group()
        members["n2"].role = "backup"
        assert kinds(self.check(members)) == ["primary-count"]

    def test_primary_still_at_the_initial_term(self):
        members = ledger_group()
        for replica in members.values():
            replica.term = 1
        assert kinds(self.check(members)) == ["primary-term"]
        # Only a harness that crashed the primary expects a later term.
        assert self.check(members, failed_over=False) == []

    def test_diverged_applied_index(self):
        members = ledger_group()
        members["n1"].applied_index = 0
        findings = self.check(members)
        assert kinds(findings) == ["replica-diverged"]
        assert "n1 diverged from n0 (0 != 1)" in findings[0][1]

    def test_diverged_machine_state_at_the_same_index(self):
        members = ledger_group()
        members["n2"].machine.balances.update(a=54, b=46)
        assert kinds(self.check(members)) == ["replica-diverged"]

    def test_broken_conservation_on_one_replica(self):
        members = ledger_group()
        members["n1"].machine.balances["a"] += 1
        findings = self.check(members)
        assert kinds(findings) == ["replica-diverged", "conservation"]
        assert "n1 (total=101)" in findings[1][1]

    def test_acked_txid_missing_on_one_replica(self):
        members = ledger_group()
        members["n0"].machine.applied_txids.clear()
        # A set, a list that repeats the txid and a txid -> amount dict
        # name the same one distinct txid.
        for acked in ({"t0"}, ["t0", "t0"], {"t0": 5}):
            findings = self.check(members, acked=acked)
            # n0 is the member the others are compared with.
            assert kinds(findings) == ["replica-diverged", "replica-diverged",
                                       "acked-not-applied"]
            assert "1 acked txids missing on n0 (first: t0)" in findings[2][1]

    def test_a_group_without_a_ledger_skips_the_ledger_invariants(self):
        members = ledger_group()
        for replica in members.values():
            replica.machine = KVMachine()
        assert check_group(members) == []

    def test_summary_and_close(self):
        members = ledger_group()
        assert group_summary(members) == {
            "primary": "n2",
            "terms": {"n0": 2, "n1": 2, "n2": 2},
            "applied_index": {"n0": 1, "n1": 1, "n2": 1},
        }
        close_group(members)
        assert all(replica.closed for replica in members.values())


ALL_KINDS = {"primary-count", "primary-term", "replica-diverged",
             "conservation", "acked-not-applied"}


def break_then_check(monkeypatch, module, only=lambda members: True):
    """Make ``module``'s harness judge a group broken in every way the
    check knows. Returns the list the real check's findings land in."""
    surfaced = []

    def broken_check(members, acked=(), expected_total=None, **kwargs):
        if not only(members):
            return check_group(members, acked, expected_total, **kwargs)
        low, mid, high = members.values()
        mid.applied_index += 1
        mid.machine.balances[next(iter(mid.machine.balances))] += 1
        low.machine.applied_txids.pop(sorted(acked)[0], None)
        for replica in members.values():
            replica.role, replica.term = "backup", 1
        high.role = "primary"
        findings = check_group(members, acked, expected_total,
                               failed_over=True)
        mid.role = "primary"
        findings += check_group(members, acked, expected_total)[:1]
        surfaced.extend(findings)
        return findings

    monkeypatch.setattr(module, "check_group", broken_check)
    return surfaced


class TestEveryHarnessSurfacesTheFindings:
    def test_chaos_failover_campaign(self, monkeypatch):
        surfaced = break_then_check(monkeypatch, mixes)
        card = chaos.run_campaign("failover", 0, **SHORT)
        assert set(kinds(surfaced)) == ALL_KINDS
        assert card["violations"] == sorted(
            f"replication: {detail}" for _kind, detail in surfaced
        )
        broken = [name for name, held in card["invariants"].items()
                  if not held]
        assert broken == ["replication_failover"]
        assert card["replication"]["conserved"] is False
        assert not card["ok"]

    def test_simtest_failover_world(self, monkeypatch):
        surfaced = break_then_check(
            monkeypatch, replicated,
            only=lambda members: isinstance(
                next(iter(members.values())).machine, LedgerMachine
            ),
        )
        card = replicated.run_failover(0)
        assert set(kinds(surfaced)) == ALL_KINDS
        reported = {(d["oracle"], d["kind"], d["detail"])
                    for d in card["divergences"]}
        assert reported == {("replication", kind, f"group led: {detail}")
                            for kind, detail in surfaced}
        assert not card["ok"]

    def test_telemetry_ledger_scenario(self, monkeypatch):
        surfaced = break_then_check(monkeypatch, telemetry)
        card = run_scenario("telemetry_ledger:heavy_tail", seed=0,
                            horizon_s=8.0)
        assert set(kinds(surfaced)) == ALL_KINDS
        assert card["archetype_detail"]["consistency_violations"] == sorted(
            detail for _kind, detail in surfaced
        )
        assert not card["ok"]


# ---------------------------------------------------------- history + replay


class TestHistory:
    def test_fulfilled_closes_the_interval_rejected_leaves_it_pending(self):
        clock = iter([1.0, 2.0, 3.0])
        history = History(lambda: next(clock))
        done, failed = Promise(), Promise()
        history.record(("so", "k"), "c0", "write", (7,), done)
        history.record(("so", "k"), "c1", "read", (), failed)
        failed.reject(TimeoutError("retries exhausted"))
        done.fulfill(1)
        assert history.rows() == [
            (("so", "k"), "c0", "write", (7,), 1.0, 3.0, 1),
            (("so", "k"), "c1", "read", (), 2.0, None, None),
        ]

    def test_replay_rejects_what_it_has_no_model_for(self):
        row = (("queue", "q0"), "c0", "push", (1,), 0.0, 1.0, None)
        with pytest.raises(ConfigurationError):
            replay([row], {})

    def test_a_ledger_history_needs_declared_accounts(self):
        """An archetype that records ``("ledger",)`` history without
        declaring ``initial_accounts`` is refused — it used to be judged
        against an empty ledger and fail for the wrong reason."""
        assert Archetype.initial_accounts == {}
        row = (("ledger",), "gw", "balance", ("a",), 0.0, 1.0, 60)
        with pytest.raises(ConfigurationError):
            replay([row], Archetype.initial_accounts)
        assert replay([row], ACCOUNTS) == [(("ledger",), None, False)]


@pytest.mark.simtest
class TestOneReplay:
    def test_world_and_archetype_histories_replay_through_one_function(
            self, monkeypatch):
        world = SimWorld(scenario_for_iteration(0, 1))
        assert world.run().ok
        run = ScenarioRun(parse_spec("telemetry_ledger:heavy_tail", 0,
                                     horizon_s=8.0, record_history=True))
        archetype = run.archetype
        run.run()

        from_world = world.history.rows()
        from_archetype = archetype.history()
        assert {obj[0] for obj, *_ in from_world} == {"ledger", "so", "ts"}
        assert {obj for obj, *_ in from_archetype} == {("ledger",)}
        for rows, accounts in (
            (from_world, dict.fromkeys(WORLD_ACCOUNTS, INITIAL_BALANCE)),
            (from_archetype, archetype.initial_accounts),
        ):
            assert all(problem is None for _obj, problem, _ in
                       replay(rows, accounts))

        # The same function also refuses both: a balance nobody held.
        forged = (("ledger",), "cX", "balance", ("ingress",), 90.0, 91.0, -1)
        _obj, problem, aborted = replay(from_archetype + [forged],
                                        archetype.initial_accounts)[0]
        assert "no linearization" in problem and not aborted

    def test_every_harness_reaches_the_checker_through_replay(
            self, monkeypatch):
        calls = []
        real = oracles.check_linearizable

        def counting(ops, model, *args, **kwargs):
            calls.append(type(model).__name__)
            return real(ops, model, *args, **kwargs)

        monkeypatch.setattr(oracles, "check_linearizable", counting)
        SimWorld(scenario_for_iteration(0, 1)).run()
        assert set(calls) == {"LedgerModel", "RegisterModel",
                              "TupleSpaceModel"}
        del calls[:]
        card = replicated.run_failover(1)
        assert len(calls) == card["stats"]["lin_objects"] >= 3
        del calls[:]
        result = check_scenario("chat_fanout:heavy_tail", seed=0,
                                horizon_s=6.0)
        assert calls == ["TupleSpaceModel"] * result["objects"]


# ------------------------------------------------- one copy of each, by grep


def sources():
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in SRC.rglob("*.py")}


def test_one_replay_call_site_and_one_canonical_encoder():
    replays = {name: text.count("check_linearizable(")
               for name, text in sources().items()
               if name != "simtest/linearizability.py"
               and "check_linearizable(" in text}
    assert replays == {"simtest/oracles.py": 1}, (
        "histories are replayed in one place: repro.simtest.oracles.replay"
    )
    encoder = 'sort_keys=True, separators=(",", ":")'
    encoders = {name: text.count(encoder)
                for name, text in sources().items() if encoder in text}
    assert encoders == {"obs/export.py": 1}, (
        "scorecards and traces are encoded in one place: "
        "repro.obs.export.canonical_json"
    )
    assert chaos.scorecard_bytes is canonical_json
    assert replicated.scorecard_bytes is canonical_json
    import repro.workloads

    assert repro.workloads.canonical_bytes is canonical_json

    # The superseded copies (second replication layer, second metrics API,
    # trace shim, backend env switch, second _pick) and the driverless
    # sharded simulator with its medium hook, its bytes-built and pickled
    # frames, the corruptor-only splice path, the second and third receive
    # decoders, the heartbeat packer, the per-delivery frame counters, the
    # codecs' frame coercion, the channel multiplexer, the all-static
    # switch the neighbour memo outgrew, the options nothing set whose names
    # are unique, the wall-clock scheduler and clock, the exceptions
    # nothing raised, the queue and clock the simulator now owns, the
    # run-time-named counter registry, the three modules that moved to
    # their layer, and the paper features no driver wired (§3.3's traffic
    # trigger, §3.4's benefit shapes, §4's 802.11 and reachability plugins,
    # §3.9's codec gateway and pub/sub -> tuple bridge) cannot creep back.
    texts = sources()
    reads_env = [name for name, text in texts.items()
                 if "os.environ" in text or "getenv" in text]
    assert reads_env == [], "src/repro reads no environment variable"
    for gone in ("repro.recovery.replication", "repro.netsim.trace",
                 "repro.netsim.shard", "repro.replication.demo",
                 "repro.transport.multiplex", "repro.util.priorityqueue",
                 "repro.util.clock", "repro.interop.bridge",
                 "repro.interop.webserver", "repro.scheduling.bandwidth",
                 "repro.qos.benefit"):
        assert importlib.util.find_spec(gone) is None, gone
    removed = ("MetricsRecorder", "SeriesPoint", "BACKEND_ENV",
               "PrimaryReplica", "BackupReplica", "ReplicationClient",
               "ShardedSimulation", "set_egress", "egress_relayed",
               "EgressHook", "SWEEPABLE", "WireFrame.from_bytes",
               "decode_payload", "splice_int_field", "_skip_value",
               "frame_bytes", "_FRAME_DICT_EXTRACTOR", "_rebuild_frame",
               "TailIntPacker", "packer=", "Multiplexer", "ChannelTransport",
               "BuiltStack", "multiplexed", "_live_counters",
               "frames.passthrough", "encode_skipped", "_FRAME_TYPES",
               "all_static", "charge_sense", "sense_energy",
               "max_feasibility_entries", "forward_prefix", "weight_fn",
               "RealTimeScheduler", "SystemClock", "LeaseExpiredError",
               "QoSViolationError", "InfeasibleError", "NoRouteError",
               "DeadlineMissed", "StablePriorityQueue", "ManualClock",
               "pop_if_at_most", "MetricsRegistry", "traffic_probe",
               "traffic_threshold", "Benefit(", "BandwidthPlugin",
               "ReachabilityPlugin", "CodecGateway", "PubSubTupleBridge")
    root = SRC.parent.parent
    survivors = [(path.relative_to(root).as_posix(), name)
                 for top in ("src", "examples", "benchmarks")
                 for path in (root / top).rglob("*")
                 if path.suffix in (".py", ".md")
                 for name in removed if name in path.read_text()]
    assert survivors == []
    picks = {name: text.count("def _pick(")
             for name, text in texts.items()
             if name.startswith("simtest/") and "def _pick(" in text}
    assert picks == {"simtest/scenario.py": 1}


def test_one_receive_skeleton_under_every_protocol():
    """Decode -> validate -> dispatch lives in ``transport/endpoint.py``;
    a protocol that spells it out again puts a nineteenth copy back."""
    texts = sources()

    def where(needle, *, outside=()):
        return sorted(name for name, text in texts.items()
                      if needle in text and not name.startswith(outside))

    # A routing agent decodes the envelopes it relays; it is no endpoint.
    assert where("try_decode_dict(", outside="interop/") == [
        "routing/base.py", "transport/endpoint.py"]
    assert where("def try_decode_dict") == ["interop/frames.py"]
    assert texts["interop/frames.py"].count("def try_decode_dict") == 1
    assert where("malformed_frames += 1", outside="transport/") == []
    assert where("def _on_message") == ["transport/endpoint.py"]
    assert texts["transport/endpoint.py"].count("def _on_message") == 1
    one_line_send = re.compile(
        r"def (?:_send|_reply)\(self[^)]*\)[^:]*:\n"
        r"\s+self\.transport\.send\([^\n]*WireFrame\([^\n]*self\.codec\)\)\n")
    assert [name for name, text in texts.items()
            for _ in one_line_send.findall(text)] == ["transport/endpoint.py"]


#: The layers ``build_stack`` composes; only ``transport/stack.py`` builds
#: them, so the layer order is stated once.
STACKED_LAYERS = ("SecureTransport", "ReliableTransport")


def composer_violations(root, tops, composer):
    """``file:line name`` for each call of a :data:`STACKED_LAYERS` class in
    a ``.py`` file under ``root``'s ``tops``, other than ``composer``."""
    root = Path(root)
    return [f"{relative}:{node.lineno} {_name(node)}"
            for top in tops for path in sorted((root / top).rglob("*.py"))
            if (relative := path.relative_to(root).as_posix()) != composer
            for node in ast.walk(parsed(path))
            if isinstance(node, ast.Call) and _name(node) in STACKED_LAYERS]


def test_build_stack_is_the_one_composer():
    """Encryption and reliability are stacked over a transport in one
    place, ``build_stack``. ``tests/`` is exempt: it builds the layers one
    at a time."""
    assert composer_violations(
        SRC.parent.parent, ("src", "examples", "benchmarks"),
        "src/repro/transport/stack.py") == []


def test_the_composer_contract_on_a_toy_tree(tmp_path):
    tree = {
        "src/toy/stack.py": ("def build(base):\n"
                             "    return ReliableTransport(base)\n"),
        "src/toy/world.py": ("from toy import reliable\n"
                             "class ReliableTransport: pass\n"
                             "def f(base):\n"
                             "    return reliable.ReliableTransport(base)\n"),
        "examples/demo.py": "top = SecureTransport(base, key)\n",
        "tests/test_toy.py": "top = SecureTransport(base, key)\n",
    }
    for name, text in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert composer_violations(tmp_path, ("src", "examples"),
                               "src/toy/stack.py") == [
        "src/toy/world.py:4 ReliableTransport",
        "examples/demo.py:1 SecureTransport",
    ]


def test_chaos_scorecard_reads_invariant_names_not_message_substrings():
    path = SRC / "workloads" / "campaign.py"
    scorecard = ast.get_source_segment(path.read_text(), next(
        node for node in ast.walk(parsed(path))
        if isinstance(node, ast.FunctionDef) and node.name == "_scorecard"))
    assert " in v" not in scorecard and "startswith" not in scorecard


def loaded_by(importing):
    """The ``repro`` modules a fresh interpreter holds after ``importing``."""
    return e2e_workloads.repro_modules_first_imported(f"import {importing}")


def test_importing_workloads_loads_neither_chaos_nor_simtest():
    loaded = loaded_by("repro.workloads")
    # The built-in archetypes register on import; the rest loads on use.
    assert "repro.workloads.archetypes.telemetry" in loaded
    assert [m for m in loaded if m == "repro.netsim.chaos"
            or m.startswith("repro.simtest")] == []


# ------------------------------------------------------- one layer order

#: ``src/repro``'s packages and top-level modules in tiers, lowest first. A
#: module imports only from its own package or from a lower tier, so the
#: package graph holds no cycle. A new package takes a tier here.
LAYERS = (
    ("errors", "util"),
    ("interop", "obs", "bibliometrics"),
    ("netsim", "qos"),
    ("transport",),
    ("discovery", "naming", "recovery", "routing"),
    ("core", "transactions"),
    ("middleware", "monitoring", "replication", "scheduling"),
    ("workloads",),
    ("simtest",),
    ("experiments",),
)

#: The one import against the order: the forwarder the benchmark of record
#: binds to at ``repro.netsim.chaos``.
LAYER_EXCEPTION = ("netsim/chaos.py", "repro.workloads.campaign")


def layer_violations(src_root, layers):
    """``(file:line, module, why)`` for each import in the package at
    ``src_root`` that does not run down ``layers``: module-level,
    function-level, under ``TYPE_CHECKING`` or a lazy ``_facade`` row. The
    root ``__init__`` (the facade over everything) has no tier."""
    src_root = Path(src_root)
    root = src_root.name
    tier = {package: number for number, row in enumerate(layers)
            for package in row}

    def named(package):
        number = tier.get(package)
        return f"{package!r}, which has no tier" if number is None else (
            f"tier {number} ({', '.join(layers[number])})")

    found = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root)
        if relative.parts == ("__init__.py",):
            continue
        own = relative.parts[0].removesuffix(".py")
        package = [root, *relative.parts[:-1]]
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module
                if node.level:  # relative: up from the importer's package
                    up = package[:len(package) - node.level + 1]
                    base = ".".join(up + ([base] if base else []))
                modules = ([f"{base}.{alias.name}" for alias in node.names]
                           if base == root else [base])
            elif isinstance(node, ast.Call) and _name(node) == "_facade":
                modules = list(ast.literal_eval(node.args[1]).values())
            else:
                continue
            for module in modules:
                head, _, rest = module.partition(".")
                target = rest.split(".")[0] or head  # a bare root: no tier
                if head != root or target in (own, "_facade"):
                    continue
                if tier.get(target, len(layers)) >= tier.get(own, -1):
                    found.append((f"{relative.as_posix()}:{node.lineno}",
                                  module, f"{named(own)} imports "
                                  f"{named(target)}"))
    return found


def test_every_import_runs_down_the_layer_order():
    found = layer_violations(SRC, LAYERS)
    assert [f"{where} {module}: {why}" for where, module, why in found
            if (where.split(":")[0], module) != LAYER_EXCEPTION] == []
    # A named exception nobody needs any more is taken off; this one stays
    # a forwarder, and only for whoever names it: the package does not
    # load it.
    assert [(where.split(":")[0], module)
            for where, module, _ in found] == [LAYER_EXCEPTION]
    assert len((SRC / "netsim" / "chaos.py").read_text().splitlines()) <= 15
    assert not {"repro.netsim.chaos", "repro.workloads"} & set(
        loaded_by("repro.netsim"))


def test_the_layer_order_on_a_toy_tree(tmp_path):
    tree = {
        "__init__.py": "from toy import top\n",
        "base/__init__.py": "",
        "base/a.py": "import os\nfrom toy.top import b\nimport toy\n",
        "mid.py": "def f():\n    from toy import side\n",
        "side/__init__.py": "from toy import _facade\n",
        "side/c.py": "from . import d\nfrom .. import base\n",
        "top/b.py": ("from typing import TYPE_CHECKING\nimport toy.mid\n"
                     "if TYPE_CHECKING:\n    from toy.extra import e\n"),
    }
    for name, text in tree.items():
        path = tmp_path / "toy" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    layers = (("base",), ("mid", "side"), ("top",))
    assert layer_violations(tmp_path / "toy", layers) == [
        ("base/a.py:2", "toy.top", "tier 0 (base) imports tier 2 (top)"),
        ("base/a.py:3", "toy", "tier 0 (base) imports 'toy', which has no "
                               "tier"),
        ("mid.py:2", "toy.side", "tier 1 (mid, side) imports tier 1 "
                                 "(mid, side)"),
        ("top/b.py:4", "toy.extra", "tier 2 (top) imports 'extra', which "
                                    "has no tier"),
    ]


def test_the_campaign_never_asks_which_mix_it_runs():
    """A mix name maps to behaviour in one table (``workloads/mixes.py``);
    what the move deleted cannot creep back under another roof."""
    texts = sources()

    def where(needle):
        return sorted(name for name, text in texts.items() if needle in text)

    assert where("spec.mix ==") == where("spec.mix !=") == []
    assert where("class SimLedger") == []
    assert [name for name in where("def schedule_mix_faults")
            if name.startswith("netsim/")] == []
    # Derived from the table, not spelled out a second time.
    assert where('FAULT_MIXES = ("') == where('COMPOSABLE_MIXES = ("') == []
    campaign = texts["workloads/campaign.py"]
    assert "is not None and" not in campaign and ".episodes" not in campaign
    assert list(inspect.signature(replicated.ReplicatedWorld).parameters) == [
        "seed", "tie_seed"]


# ------------------------------------------------ every module has a driver


@functools.lru_cache(maxsize=None)
def parsed(path):
    """The module at ``path``, parsed once for both computed contracts."""
    return ast.parse(Path(path).read_text())


def undriven_modules(src_root, entry_files):
    """Modules of the package at ``src_root`` that no entry file reaches.

    Imports are followed from ``entry_files`` through every module they
    land on. A package ``__init__`` is transparent: a name a driver imports
    from the package resolves through the ``__init__``'s re-export, or the
    row of its lazy ``_facade`` table, to the module that holds it, and the
    ``__init__``'s own imports reach nothing (nor is it reported: a package
    is driven as its modules are).
    """
    src_root = Path(src_root).resolve()
    files = {}
    for path in src_root.rglob("*.py"):
        parts = path.relative_to(src_root.parent).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    names = {path: name for name, path in files.items()}

    def imports(path):
        """``(module, name, bound as)`` per import statement in ``path``."""
        package = names.get(path, "").split(".")
        if path.name != "__init__.py":
            package = package[:-1]
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None, None
            elif isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] if node.level else []
                base = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    yield base, alias.name, alias.asname or alias.name
            elif isinstance(node, ast.Call) and _name(node) == "_facade":
                for name, module in ast.literal_eval(node.args[1]).items():
                    yield module, name, name

    def resolve(module, name):
        if f"{module}.{name}" in files:  # from package import submodule
            return f"{module}.{name}"
        path = files.get(module)
        if path is not None and name and path.name == "__init__.py":
            for base, original, bound in imports(path):
                if bound == name and base != module:
                    return resolve(base, original)
        return module if path is not None else None

    todo = [Path(entry).resolve() for entry in entry_files]
    driven = {names[path] for path in todo if path in names}
    while todo:
        for module, name, _bound in imports(todo.pop()):
            target = resolve(module, name)
            if target is not None and target not in driven:
                driven.add(target)
                if files[target].name != "__init__.py":
                    todo.append(files[target])
    return sorted(name for name, path in files.items()
                  if path.name != "__init__.py" and name not in driven)


def test_every_module_has_a_driver():
    """Something other than pytest runs every module under ``src/repro``:
    a CLI, the facade, a registry row, a benchmark or an example imports
    it. Computed from the tree — there is no list of modules to keep."""
    from repro.simtest.defects import DEFECTS, PLANTS, target_function
    from repro.workloads import ARCHETYPES, TRAFFIC_MODELS

    root = SRC.parent.parent
    rows = [info.factory for registry in (ARCHETYPES, TRAFFIC_MODELS)
            for info in registry.values()]
    rows += list(mixes.MIXES.values())
    rows += [target_function(DEFECTS[name].target) for name in PLANTS]
    entries = [SRC / "experiments" / "__main__.py", SRC / "workloads" / "__main__.py",
               SRC / "simtest" / "__main__.py", SRC / "obs" / "report.py",
               SRC / "middleware.py"]
    entries += {sys.modules[row.__module__].__file__ for row in rows
                if row.__module__.startswith("repro.")}
    entries += (root / "benchmarks").rglob("*.py")
    entries += (root / "examples").glob("*.py")
    assert all(Path(entry).is_file() for entry in entries)
    assert undriven_modules(SRC, entries) == []


def test_records_are_slotted_classes_not_dataclasses():
    """A record is a class with ``__slots__`` and a written ``__init__``:
    a ``dataclass`` compiles its generated methods from source at import,
    in every process, and is decorated nowhere under ``src/repro``."""
    decorated = [f"{path.relative_to(SRC).as_posix()}:{node.name}"
                 for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(parsed(path))
                 if isinstance(node, ast.ClassDef)
                 and "dataclass" in map(_name, node.decorator_list)]
    assert decorated == []


def test_the_driver_contract_on_a_toy_tree(tmp_path):
    tree = {
        "src/toy/__init__.py": "",
        "src/toy/pkg/__init__.py": ("from toy.pkg.held import Held as Shown\n"
                                    "from .orphan import Orphan\n"
                                    "from toy import _facade\n"
                                    "__getattr__, __all__ = _facade(__name__, {\n"
                                    "    'Later': 'toy.pkg.later',\n"
                                    "    'Unused': 'toy.pkg.unused',\n"
                                    "})\n"),
        "src/toy/pkg/held.py": "from . import helper\nclass Held: pass\n",
        "src/toy/pkg/helper.py": "",
        "src/toy/pkg/orphan.py": "class Orphan: pass\n",
        "src/toy/pkg/later.py": "from .helper import *\nclass Later: pass\n",
        "src/toy/pkg/unused.py": "class Unused: pass\n",
        "src/toy/tested.py": "",
        "src/toy/row.py": "from .pkg import helper\n",
        "src/toy/cli.py": "def main():\n    import toy.lazy\n",
        "src/toy/lazy.py": "",
        "tests/test_toy.py": "import toy.tested\nfrom toy.pkg import Orphan\n",
        "examples/demo.py": "from toy.pkg import Shown\n",
        "examples/later.py": "from toy.pkg import Later\n",
    }
    for name, text in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    src = tmp_path / "src" / "toy"

    def undriven(*entries):
        return undriven_modules(src, [tmp_path / entry for entry in entries])

    everything = ["toy.cli", "toy.lazy", "toy.pkg.held", "toy.pkg.helper",
                  "toy.pkg.later", "toy.pkg.orphan", "toy.pkg.unused",
                  "toy.row", "toy.tested"]
    assert undriven() == everything
    # A re-exported *name* reaches its module (and what that imports,
    # relatively); the __init__'s other re-export reaches nothing, and
    # neither does the test file, which is never an entry.
    assert undriven("examples/demo.py") == [
        "toy.cli", "toy.lazy", "toy.pkg.later", "toy.pkg.orphan",
        "toy.pkg.unused", "toy.row", "toy.tested"]
    # A name in the lazy table reaches the module its row names, and only
    # that one: the table's other row reaches nothing.
    assert undriven("examples/later.py") == [
        "toy.cli", "toy.lazy", "toy.pkg.held", "toy.pkg.orphan",
        "toy.pkg.unused", "toy.row", "toy.tested"]
    # A registry row's module is an entry itself; a CLI's lazy import counts.
    assert undriven("examples/demo.py", "src/toy/row.py", "src/toy/cli.py") == [
        "toy.pkg.later", "toy.pkg.orphan", "toy.pkg.unused", "toy.tested"]


FACADES = sorted(".".join(path.relative_to(SRC.parent).parent.parts)
                 for path in SRC.rglob("__init__.py")
                 if "_facade(" in path.read_text())


@pytest.mark.parametrize("package", FACADES)
def test_every_facade_name_resolves(package):
    """A lazy row fails only when the name is first used, so a misspelt
    module or name fails here, by name, instead of in some later caller."""
    module = importlib.import_module(package)
    unresolved = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []


def test_no_module_imports_numpy():
    """The library is pure Python: numpy is a test-side dependency only."""
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.append(str(path.relative_to(SRC)))
    assert importers == []


def test_no_package_imports_a_name_eagerly():
    """A package ``__init__`` imports submodules (to register them) and the
    ``_facade`` helper, never a name: a name it offers is a table row."""
    eager = []
    for path in SRC.rglob("__init__.py"):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith(
                    "repro"):
                base = SRC.parent.joinpath(*node.module.split("."))
                eager += [f"{node.module}.{alias.name}" for alias in node.names
                          if alias.name != "_facade"
                          and not (base / f"{alias.name}.py").is_file()
                          and not (base / alias.name).is_dir()]
    assert eager == []


# ------------------------------------------------ every option has a setter


def _name(node):
    """The last name in ``node``: ``f`` for ``f``, ``a.f`` and ``f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", None)


def _init_arguments(cls):
    """``(name, has a default, positional, line)`` per argument of
    ``cls``'s own ``__init__`` after ``self``; None when it defines none."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            positional = (args.posonlyargs + args.args)[1:]
            defaults = [None] * (len(positional) - len(args.defaults))
            return ([(arg.arg, default is not None, True, arg.lineno)
                     for arg, default in zip(positional,
                                             defaults + args.defaults)]
                    + [(arg.arg, default is not None, False, arg.lineno)
                       for arg, default in zip(args.kwonlyargs,
                                               args.kw_defaults)])
    return None


def unset_options(src_root, caller_roots):
    """``{Class.option: "path:line"}`` for each option of a public class
    under ``src_root`` that no call in a file under ``caller_roots`` sets,
    the path relative to the tree holding ``src/`` and the line its
    ``__init__`` argument's.

    An option is an ``__init__`` keyword with a default. A call sets the options
    it names, those its positional arguments reach, and all of them when it
    expands ``*`` or ``**``, but not one it is passed ``<expr>.name``, a
    copy of another instance's value; ``self.name`` is the caller's own
    value and sets it. ``super().__init__(...)`` in a class calls its
    bases, ``cls(...)`` the class itself. A callee is known by its name, and
    a class without an ``__init__`` of its own takes its base's arguments,
    wherever the class is defined.
    """
    tree = Path(src_root).resolve().parent.parent
    src_files = sorted(Path(src_root).resolve().rglob("*.py"))
    files = src_files + [path for root in caller_roots
                         for path in sorted(Path(root).resolve().rglob("*.py"))]
    classes = {}  # name -> [ClassDef], from any file
    for path in dict.fromkeys(files):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)

    def arguments(cls):
        """``(owner, name, has a default, positional)`` per argument."""
        own = _init_arguments(cls)
        if own is not None:
            return [(cls.name, *argument) for argument in own]
        return next((arguments(base) for base_name in map(_name, cls.bases)
                     for base in classes.get(base_name, ())
                     if base is not cls), [])

    options = {f"{cls.name}.{name}":
               f"{path.relative_to(tree).as_posix()}:{line}"
               for path in src_files for cls in parsed(path).body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for owner, name, default, _, line in arguments(cls)
               if owner == cls.name and default}

    def copies(value, name):
        """``<expr>.name`` passed as ``name`` carries another instance's
        value over and sets nothing; ``self.name`` does set it."""
        return (isinstance(value, ast.Attribute) and value.attr == name
                and not (isinstance(value.value, ast.Name)
                         and value.value.id == "self"))

    def credit(cls, call):
        reached = arguments(cls)
        if not (any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(kw.arg is None for kw in call.keywords)):
            named = {kw.arg for kw in call.keywords
                     if not copies(kw.value, kw.arg)}
            positional = [argument for argument in reached if argument[3]]
            reached = ([argument for argument, value
                        in zip(positional, call.args)
                        if not copies(value, argument[1])]
                       + [argument for argument in reached
                          if argument[1] in named])
        for owner, name, *_ in reached:
            options.pop(f"{owner}.{name}", None)

    class Calls(ast.NodeVisitor):
        def __init__(self):
            self.within = []  # the enclosing class definitions, innermost last

        def visit_ClassDef(self, node):
            self.within.append(node)
            self.generic_visit(node)
            self.within.pop()

        def visit_Call(self, node):
            name = _name(node)
            if (name == "__init__" and isinstance(node.func, ast.Attribute)
                    and _name(node.func.value) == "super" and self.within):
                callees = [base for base_name in map(_name, self.within[-1].bases)
                           for base in classes.get(base_name, ())]
            elif name == "cls" and self.within:
                callees = [self.within[-1]]
            else:
                callees = classes.get(name, ())
            for cls in callees:
                credit(cls, node)
            self.generic_visit(node)

    for path in files[len(src_files):]:
        Calls().visit(parsed(path))
    return dict(sorted(options.items()))


#: The options no call outside ``tests/`` sets, each with why it stays: a
#: ``seam`` a test uses to substitute a fake, inject loss or an outage, set
#: a start state or step the component by hand; or a ``paper §`` mechanism
#: only tests deploy, which ROADMAP item 18 wires or deletes.
SET_ONLY_BY_TESTS = {
    "Battery.remaining": "seam: a battery that starts part-drained "
                         "(test_energy, test_routing)",
    "GpsDevice.outage_probability": "seam: GPS outages (test_devices)",
    "InMemoryFabric.loss_probability": "seam: loss on the in-memory wire "
                                       "(test_reliable, test_transport)",
    "InMemoryFabric.seed": "seam: the seed of that loss (test_reliable)",
    "LinkProfile.loss_probability": "seam: a lossy wired link (test_netsim)",
    "MiddlewareNode.adaptive": "paper §3.3: adaptive centralized/distributed "
                               "discovery on a full node",
    "MiddlewareNode.registry": "paper §3.3: a node bound to a central "
                               "registry",
    "Milan.auto_reconfigure": "seam: MiLAN stepped by hand "
                              "(TestEngineRoundsMatchUncached, test_reconfig, "
                              "test_perf_hotpaths' count rows)",
    "Milan.context": "seam: a network context the test builds "
                     "(test_integration)",
    "Milan.elect_master": "paper §4: electing a piconet master",
    "MobileAgent.state": "seam: an agent that sets off with state "
                         "(test_transactions_frames)",
    "NetworkContext.network": "paper §4: MiLAN configuring routers over the "
                              "live topology",
    "NetworkContext.sensors": "paper §4: a fleet shared with the network "
                              "plugins",
    "NetworkContext.sink_node_id": "paper §4: the sink that routes lead to",
    "PathMobility.start_time": "seam: a path that sets off later "
                               "(test_spatialindex)",
    "ReplicationParams.compact_every": "paper §3.8: log compaction and "
                                       "snapshot install",
    "RpcEndpoint.interface": "paper §3.9: calls checked against a markup "
                             "interface",
    "ScheduledTask.action": "seam: a callback that records completions "
                            "(test_scheduling)",
    "Simulator.start_time": "seam: a clock that starts later "
                            "(test_simulator)",
    "TransactionSpec.operation": "seam: a call to another operation "
                                 "(test_capstone)",
    "TransactionSpec.predicted_times": "seam: intermittent calls at given "
                                       "times (test_transaction_manager)",
}


def option_contract_violations(src_root, caller_roots, table):
    """``path:line Class.option: why`` for each option under ``src_root``
    that only tests set and ``table`` does not pin, each entry of ``table``
    that a call under ``caller_roots`` now sets or that names no option,
    and each entry whose reason starts with neither ``seam`` nor
    ``paper §``; ``-`` stands for the address of an option that is gone."""
    every = unset_options(src_root, [])
    unset = unset_options(src_root, caller_roots)
    found = []
    for name in sorted(set(unset) | set(table)):
        if name not in table:
            why = "only tests set it"
        elif name not in every:
            why = "stale: no such option"
        elif name not in unset:
            why = "stale: a caller outside tests/ sets it"
        elif not table[name].startswith(("seam", "paper §")):
            why = "the reason is neither a seam nor a paper mechanism"
        else:
            continue
        found.append(f"{every.get(name, '-')} {name}: {why}")
    return found


def test_every_option_is_set_somewhere():
    """A constructor option that only ever holds its default is an
    unexercised path, not policy: some call under ``src/``, ``examples/``
    or ``benchmarks/`` sets every one, or :data:`SET_ONLY_BY_TESTS` pins it
    as a test seam or a paper mechanism. A value nobody sets is a module
    constant or a plain attribute. Computed from the tree."""
    root = SRC.parent.parent
    callers = [root / top for top in ("src", "examples", "benchmarks")]
    assert option_contract_violations(SRC, callers, SET_ONLY_BY_TESTS) == []


def test_the_option_contract_on_a_toy_tree(tmp_path):
    tree = {
        "src/toy/parts.py": (
            "class Base:\n"
            "    def __init__(self, a, b=1, *, c=2, d=3):\n"
            "        pass\n"
            "class Heir(Base):\n"
            "    pass\n"
            "class Own(Base):\n"
            "    def __init__(self, e=4, **rest):\n"
            "        super().__init__(0, **rest)\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls(5)\n"
            "class _Hidden:\n"
            "    def __init__(self, f=6):\n"
            "        pass\n"),
        "src/toy/use.py": "from toy.parts import Heir\nHeir(0, 1)\n",
        "tests/test_toy.py": (
            "from toy.parts import Base\n"
            "class Local(Base):\n"
            "    pass\n"
            "Local(0, d=9)\n"),
        "examples/copy.py": (
            "from toy.parts import Base\n"
            "def copy(old):\n"
            "    return Base(0, old.b, c=old.d, d=old.d)\n"),
        "benchmarks/own.py": (
            "from toy.parts import Base\n"
            "class Keeper:\n"
            "    def __init__(self, b):\n"
            "        self.b = b\n"
            "    def fresh(self):\n"
            "        return Base(0, self.b)\n"),
    }
    for name, text in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    src = tmp_path / "src" / "toy"

    def unset(*roots):
        return list(unset_options(src, [tmp_path / root for root in roots]))

    everything = ["Base.b", "Base.c", "Base.d", "Own.e"]
    assert unset() == everything
    # Each option is addressed by its ``__init__`` argument.
    assert unset_options(src, []) == {
        "Base.b": "src/toy/parts.py:2", "Base.c": "src/toy/parts.py:2",
        "Base.d": "src/toy/parts.py:2", "Own.e": "src/toy/parts.py:7"}
    # A class's own definition sets nothing; a caller in src does: an
    # heir's positional reaches its base's ``b``, ``super().__init__``
    # with ``**`` reaches all of the base's, ``cls(5)`` the first of Own's.
    assert unset("src") == []
    # A test's subclass passes through to the base; the private class's
    # option is never one.
    assert unset("tests") == ["Base.b", "Base.c", "Own.e"]
    assert unset("src", "tests") == []
    # Passing another instance's ``.b`` as ``b`` copies it and sets
    # nothing; ``c=old.d`` is a value of another name and sets ``c``.
    assert unset("examples") == [name for name in everything
                                 if name != "Base.c"]
    # The caller's own ``self.b`` passed as ``b`` is its value: it sets it.
    assert unset("benchmarks") == [name for name in everything
                                   if name != "Base.b"]

    def violations(table):
        return option_contract_violations(
            src, [tmp_path / root for root in ("examples", "benchmarks")],
            table)

    # Outside tests/, only ``Base.d`` (which a test sets) and ``Own.e`` are
    # unset; pinned with a seam or a paper reason, the contract holds.
    table = {"Base.d": "seam: test_toy", "Own.e": "paper §4: a mechanism"}
    assert violations(table) == []
    # A setter found only in tests/ no longer counts.
    assert violations({"Own.e": "seam: x"}) == [
        "src/toy/parts.py:2 Base.d: only tests set it"]
    # An entry that a caller outside tests/ now sets is stale.
    assert violations({**table, "Base.c": "seam: x"}) == [
        "src/toy/parts.py:2 Base.c: stale: a caller outside tests/ sets it"]
    assert violations({**table, "Gone.f": "seam: x"}) == [
        "- Gone.f: stale: no such option"]
    # Every reason is a seam or a paper mechanism; a tuning number is not.
    assert violations({**table, "Own.e": "a limit"}) == [
        "src/toy/parts.py:7 Own.e: the reason is neither a seam nor a paper "
        "mechanism"]


# ----------------------------------------------- every function has a caller


def uncalled_functions(src_root, caller_roots):
    """``module:Qualified.name`` of each function, method and class under
    ``src_root`` that no file under ``caller_roots`` uses.

    A use is a load of the same name (``f``, ``x.f``, ``f`` passed as a
    callback) or an import of it, outside the definition's own body. A
    string names a method only where code looks one up by it: a handler or
    gate slot of an ``OPS`` table, a ``getattr`` name, or a string assigned
    to the name a ``getattr`` reads. A docstring, a ``_facade`` row and a
    message's op name are no uses. A dunder, a ``Protocol`` member and a
    definition under a call decorator (a registration) count by
    construction. Resolution is by name, so it can only undercount.
    """
    src_root = Path(src_root).resolve()
    candidates = []  # (module:qualname, the definition)

    def collect(node, module, prefix, protocol):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                collect(child, module, prefix, protocol)
                continue
            name = child.name
            if not (protocol or name.startswith("__") and name.endswith("__")
                    or any(isinstance(decorator, ast.Call)
                           for decorator in child.decorator_list)):
                candidates.append((f"{module}:{prefix}{name}", child))
            collect(child, module, f"{prefix}{name}.",
                    isinstance(child, ast.ClassDef)
                    and "Protocol" in map(_name, child.bases))

    for path in sorted(src_root.rglob("*.py")):
        parts = path.relative_to(src_root.parent).with_suffix("").parts
        collect(parsed(path), ".".join(parts), "", False)

    uses = {}  # name -> [the definitions each use sits inside]
    resolved, assigned = set(), []  # getattr-read names; (name, string, within)

    def strings(node):
        return [sub.value for sub in ast.walk(node)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]

    class Uses(ast.NodeVisitor):
        def __init__(self):
            self.within = ()

        def use(self, name):
            uses.setdefault(name, []).append(self.within)

        def visit_FunctionDef(self, node):
            for decorator in node.decorator_list:
                self.visit(decorator)
            outer, self.within = self.within, (*self.within, node)
            for child in ast.iter_child_nodes(node):
                if child not in node.decorator_list:
                    self.visit(child)
            self.within = outer

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load):
                self.use(node.id)

        def visit_Attribute(self, node):
            if isinstance(node.ctx, ast.Load):
                self.use(node.attr)
            self.generic_visit(node)

        def visit_Import(self, node):
            for alias in node.names:
                for part in alias.name.split("."):
                    self.use(part)

        def visit_ImportFrom(self, node):
            for alias in node.names:
                self.use(alias.name)

        def visit_Assign(self, node):
            if "OPS" in map(_name, node.targets):
                for row in ast.walk(node.value):  # ({fields}, handler[, gate])
                    if (isinstance(row, ast.Tuple) and row.elts
                            and isinstance(row.elts[0], ast.Dict)):
                        for slot in row.elts[1:]:
                            for name in strings(slot):
                                self.use(name)
            if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, str):
                assigned.extend((_name(target), node.value.value, self.within)
                                for target in node.targets)
            self.generic_visit(node)

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "getattr" \
                    and len(node.args) >= 2:
                for name in strings(node.args[1]):
                    self.use(name)
                resolved.update(_name(sub) for sub in ast.walk(node.args[1])
                                if isinstance(sub, (ast.Name, ast.Attribute)))
            self.generic_visit(node)

    for path in dict.fromkeys(path for root in caller_roots
                              for path in sorted(Path(root).resolve().rglob("*.py"))):
        Uses().visit(parsed(path))
    for target, name, within in assigned:
        if target in resolved:
            uses.setdefault(name, []).append(within)
    return sorted(qualified for qualified, node in candidates
                  if all(node in within for within in uses.get(node.name, ())))


def test_every_function_has_a_caller():
    """Something other than pytest uses every function, method and class
    under ``src/repro``: a call or reference under ``src/``, ``examples/``
    or ``benchmarks/``. A definition only a test reaches is wired, moved
    into ``tests/`` or deleted. Computed from the tree."""
    root = SRC.parent.parent
    callers = [root / top for top in ("src", "examples", "benchmarks")]
    assert uncalled_functions(SRC, callers) == []


def test_the_function_contract_on_a_toy_tree(tmp_path):
    tree = {
        "src/toy/__init__.py": (
            "from toy import _facade\n"
            "__getattr__, __all__ = _facade(__name__, {'exported': 'toy.lib'})\n"),
        "src/toy/lib.py": (
            '"""Calls ``documented`` nowhere; only says its name."""\n'
            "from typing import Protocol\n"
            "class Base:\n"
            "    def run(self): pass\n"
            "    def __len__(self): return 0\n"
            "class Heir(Base):\n"
            "    def run(self): pass\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    def probe(self): pass\n"
            "    def fault_targets(self): pass\n"
            "    def _on_ping(self): pass\n"
            "    def _gate(self): pass\n"
            "    def ping(self): return {'op': 'ping'}\n"
            "    OPS = {'ping': ({'rid': str}, '_on_ping', '_gate')}\n"
            "class Shape(Protocol):\n"
            "    def area(self): ...\n"
            "def registry(name):\n"
            "    return lambda cls: cls\n"
            "@registry('row')\n"
            "class Registered: pass\n"
            "def handler(): pass\n"
            "def walk(n):\n"
            "    return walk(n - 1) if n else 0\n"
            "def documented(): pass\n"
            "def exported(): pass\n"
            "def tested(): pass\n"),
        "src/toy/use.py": (
            "from toy.lib import Heir, Shape\n"
            "class Row:\n"
            "    hits = 'fault_targets'\n"
            "def main(obj: Shape, on):\n"
            "    obj.run()\n"
            "    on('event', handler)\n"
            "    getattr(obj, 'probe')()\n"
            "    getattr(obj, Row.hits)()\n"
            "    return obj.size\n"),
        "tests/test_toy.py": "from toy.lib import tested\ntested()\n",
    }
    for name, text in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    src = tmp_path / "src" / "toy"

    def uncalled(*roots):
        return uncalled_functions(src, [tmp_path / root for root in roots])

    hits = ["toy.lib:Heir.ping", "toy.lib:documented", "toy.lib:exported",
            "toy.lib:tested", "toy.lib:walk"]
    # Defined is not used: with no callers every candidate is a hit, and a
    # dunder, a Protocol member and a registered class never are.
    assert uncalled() == sorted(
        hits + ["toy.lib:Base", "toy.lib:Base.run", "toy.lib:Heir",
                "toy.lib:Heir._gate", "toy.lib:Heir._on_ping",
                "toy.lib:Heir.fault_targets", "toy.lib:Heir.probe",
                "toy.lib:Heir.run", "toy.lib:Heir.size", "toy.lib:Shape",
                "toy.lib:handler", "toy.lib:registry", "toy.use:Row",
                "toy.use:main"])
    # An attribute call reaches the override too; a callback, a property
    # read, a getattr literal, a getattr'd row string, an op-table handler
    # and gate, an import and a subclass are uses. A recursive call, a
    # docstring word, a facade row, an op name in a message and a test
    # are not; ``main`` has no caller either.
    assert uncalled("src") == sorted(hits + ["toy.use:main"])
    assert uncalled("src", "examples") == uncalled("src")


# ----------------------------------------- every stored attribute has a reader


def _stores(paths):
    """``(module, owner class or None, attr, function name or None, value)``
    for each ``<expr>.attr`` stored in ``paths`` (``(module, file)`` pairs);
    ``value`` is the expression a plain assignment stores, else None."""
    found = []

    class Stores(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.owner, self.function = module, None, None

        def store(self, node, value):
            found.append((self.module, self.owner, node.attr, self.function,
                          value))

        def visit_ClassDef(self, node):
            outer, self.owner = self.owner, node.name
            self.generic_visit(node)
            self.owner = outer

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Assign(self, node):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    self.store(target, node.value)
                    self.visit(target.value)
                else:
                    self.visit(target)
            self.visit(node.value)

        def visit_Attribute(self, node):
            if isinstance(node.ctx, ast.Store):
                self.store(node, None)
            self.generic_visit(node)

    for module, path in paths:
        Stores(module).visit(parsed(path))
    return found


def _modules(root):
    root = Path(root).resolve()
    return [(".".join(path.relative_to(root.parent).with_suffix("").parts),
             path) for path in sorted(root.rglob("*.py"))]


def _catalogued(tree):
    """The attribute of each row of a module-level ``COUNTERS`` table:
    ``name: (owner, attribute, unit, layer, meaning)``."""
    attributes = []
    for node in tree.body:
        targets = ([node.target] if isinstance(node, ast.AnnAssign)
                   else getattr(node, "targets", []))
        if "COUNTERS" in map(_name, targets) and isinstance(node.value, ast.Dict):
            attributes.extend(row.elts[1].value for row in node.value.values
                              if isinstance(row, ast.Tuple) and len(row.elts) > 1
                              and isinstance(row.elts[1], ast.Constant))
    return attributes


def unread_attributes(src_root, caller_roots):
    """``module:Owner.attr`` for each attribute stored under ``src_root``
    that no file under ``caller_roots`` reads.

    A read is a load of the same name (``x.attr``), a ``getattr`` string,
    a load of ``__slots__`` inside a class (which reads every slot it
    declares), or a row of a ``COUNTERS`` table, the declared catalogue of
    counters kept for a reader outside the library. A store is an
    assignment, augmented or not, to ``<expr>.attr``; its owner is the
    class it sits in. Resolution is by name, so it can only undercount.
    """
    reads = set()
    for path in dict.fromkeys(path for root in caller_roots
                              for path in sorted(Path(root).resolve().rglob("*.py"))):
        tree = parsed(path)
        reads.update(_catalogued(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and _name(node.func) == "getattr"
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "__slots__"
                    for sub in ast.walk(node)):
                reads.update(sub.value for stmt in node.body
                             if isinstance(stmt, ast.Assign)
                             and "__slots__" in map(_name, stmt.targets)
                             for sub in ast.walk(stmt.value)
                             if isinstance(sub, ast.Constant))
    return sorted({f"{module}:{owner}.{attr}" if owner else f"{module}:{attr}"
                   for module, owner, attr, _function, _value
                   in _stores(_modules(src_root)) if attr not in reads})


def frozen_flags(src_root, caller_roots):
    """``module:Owner.attr`` for each attribute a branch under ``src_root``
    tests that is only ever assigned a constant, in an ``__init__``.

    A branch tests an attribute when it loads it in the condition of an
    ``if``, ``while``, conditional expression or ``assert``. Every store of
    the name under ``src_root`` and ``caller_roots`` must be a plain
    assignment of a literal inside an ``__init__`` for the flag to be
    frozen; resolution is by name, so it can only undercount.
    """
    modules = _modules(src_root)
    own = {path for _module, path in modules}
    stores = {}  # attr -> [(module, owner, attr, function, value)]
    for store in _stores(modules + [
            (None, path) for root in caller_roots
            for path in sorted(Path(root).resolve().rglob("*.py"))
            if path not in own]):
        stores.setdefault(store[2], []).append(store)
    tested = {sub.attr for _module, path in modules
              for node in ast.walk(parsed(path))
              if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert))
              for sub in ast.walk(node.test)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return sorted({f"{module}:{owner}.{attr}"
                   for name in tested & set(stores)
                   if all(function == "__init__" and isinstance(value, ast.Constant)
                          for _m, _o, _a, function, value in stores[name])
                   for module, owner, attr, _function, _value in stores[name]
                   if module is not None})


def test_every_attribute_has_a_reader():
    """Something other than pytest reads every attribute ``src/repro``
    stores: a load under ``src/``, ``examples/`` or ``benchmarks/``, or a
    row of ``repro.obs.metrics.COUNTERS``, the declared catalogue of the
    counters kept for readers outside the library. A write-only attribute
    is deleted or declared. Computed from the tree."""
    root = SRC.parent.parent
    callers = [root / top for top in ("src", "examples", "benchmarks")]
    assert unread_attributes(SRC, callers) == []


def test_no_flag_is_frozen():
    """No branch under ``src/repro`` tests an attribute that only ever holds
    the constant its ``__init__`` gave it: such a branch always goes one
    way. Computed from the tree."""
    root = SRC.parent.parent
    callers = [root / top for top in ("src", "examples", "benchmarks")]
    assert frozen_flags(SRC, callers) == []


def test_every_counter_row_names_a_stored_attribute():
    """Each ``COUNTERS`` row names a class under ``src/repro`` that stores
    the attribute, with a unit, a layer and a meaning; a row whose class or
    attribute is gone fails by name."""
    from repro.obs.metrics import COUNTERS

    stored = {}  # class name -> the attributes it stores or declares
    for path in SRC.rglob("*.py"):
        for cls in ast.walk(parsed(path)):
            if isinstance(cls, ast.ClassDef):
                names = stored.setdefault(cls.name, set())
                names.update(node.attr for node in ast.walk(cls)
                             if isinstance(node, ast.Attribute)
                             and isinstance(node.ctx, ast.Store))
                names.update(_name(stmt.targets[0]) for stmt in cls.body
                             if isinstance(stmt, ast.Assign))
    missing = [name for name, (owner, attribute, unit, layer, meaning)
               in COUNTERS.items()
               if attribute not in stored.get(owner, ())
               or not (unit and layer and meaning)
               or not name.startswith(layer.split(".")[0] + ".")]
    assert missing == []


def test_only_the_sensor_constructor_sets_energy():
    """``SensorInfo.__init__`` stores ``depleted`` from ``energy_j``; an
    ``energy_j`` assigned anywhere else would leave that flag stale. So the
    one store of the name under ``src/``, ``examples/``, ``benchmarks/`` and
    ``tests/`` is the constructor's: a changed energy is a new record
    (``with_energy``/``drained``)."""
    root = SRC.parent.parent
    paths = [(path.relative_to(root).as_posix(), path)
             for top in ("src", "examples", "benchmarks", "tests")
             for path in sorted((root / top).rglob("*.py"))]
    assert [(module, owner, function)
            for module, owner, attr, function, _value in _stores(paths)
            if attr == "energy_j"] == [
        ("src/repro/core/sensors.py", "SensorInfo", "__init__")]


def test_the_attribute_contracts_on_a_toy_tree(tmp_path):
    tree = {
        "src/toy/lib.py": (
            "class Meter:\n"
            "    def __init__(self, limit):\n"
            "        self.count = 0\n"
            "        self.spare = 0\n"
            "        self.peak = 0\n"
            "        self.label = ''\n"
            "        self.tested = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "        self.spare += 1\n"
            "class Record:\n"
            "    __slots__ = ('a', 'b')\n"
            "    def __init__(self):\n"
            "        self.a, self.b = 1, 2\n"
            "    def fields(self):\n"
            "        return tuple(getattr(self, n) for n in self.__slots__)\n"
            "def configure(obj):\n"
            "    obj.mode = 1\n"
            "COUNTERS = {'toy.label': ('Meter', 'label', 'chars', 'toy', 'x')}\n"),
        "src/toy/link.py": (
            "class Link:\n"
            "    def __init__(self, limit):\n"
            "        self._up = True\n"
            "        self.open = True\n"
            "        self.kind = 'wire'\n"
            "        self.limit = limit\n"
            "        self.ready = False\n"
            "    def send(self):\n"
            "        if not self._up or not self.open:\n"
            "            return self.kind\n"
            "        while self.limit:\n"
            "            self.limit -= 1\n"
            "        return 1 if self.ready else 2\n"
            "    def close(self):\n"
            "        self.open = False\n"),
        "src/toy/use.py": (
            "def main(m):\n"
            "    return m.count, getattr(m, 'peak')\n"),
        "examples/demo.py": (
            "from toy.link import Link\n"
            "link = Link(3)\n"
            "link.ready = True\n"),
        "tests/test_toy.py": (
            "from toy.lib import Meter\n"
            "assert Meter(1).tested == 0\n"),
    }
    for name, text in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    src = tmp_path / "src" / "toy"

    def unread(*roots):
        return unread_attributes(src, [tmp_path / root for root in roots])

    def frozen(*roots):
        return frozen_flags(src, [tmp_path / root for root in roots])

    # Stored is not read: with no readers every store is a hit.
    assert unread() == [
        "toy.lib:Meter.count", "toy.lib:Meter.label", "toy.lib:Meter.peak",
        "toy.lib:Meter.spare", "toy.lib:Meter.tested", "toy.lib:Record.a",
        "toy.lib:Record.b", "toy.lib:mode", "toy.link:Link._up",
        "toy.link:Link.kind", "toy.link:Link.limit", "toy.link:Link.open",
        "toy.link:Link.ready"]
    # A load, a getattr literal, a ``__slots__`` walk and a ``COUNTERS`` row
    # are reads; an augmented store is none, and a test is no reader.
    assert unread("src") == ["toy.lib:Meter.spare", "toy.lib:Meter.tested",
                             "toy.lib:mode"]
    assert unread("src", "examples") == unread("src")
    # ``_up`` is only ever the constant its __init__ gave it; ``open`` is
    # closed later, ``limit`` is a parameter, ``kind`` is never tested, and
    # an example sets ``ready``.
    assert frozen("src") == ["toy.link:Link._up", "toy.link:Link.ready"]
    assert frozen("src", "examples") == ["toy.link:Link._up"]


#: ``docs/ARCHITECTURE.md``'s length in lines: a section arrives only by
#: taking text out. Lowered, never raised, as the document is cut down.
ARCHITECTURE_LINES = 697
ROOT = SRC.parent.parent
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"


def test_the_architecture_document_does_not_grow():
    assert len(ARCHITECTURE.read_text().splitlines()) <= ARCHITECTURE_LINES


def headings(text):
    """``(level, text)`` of each markdown heading outside code fences."""
    found, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and (match := re.match(r"(#+) (.+)", line)):
            found.append((len(match[1]), match[2].strip()))
    return found


def layer_section_problems(titles, layers):
    """What keeps ``titles`` (the ``##`` headings, in order) from being one
    section per tier of ``layers``: a package no title names, and a
    package named after a title of a higher tier."""
    tier = {package: number for number, row in enumerate(layers)
            for package in row}
    named = {}
    for title in titles:
        for word in re.findall(r"\w+", title):
            if word in tier:
                named.setdefault(word, title)
    problems = [f"{package} (tier {tier[package]}) has no section"
                for row in layers for package in row if package not in named]
    highest = -1
    for package, title in named.items():
        if tier[package] < highest:
            problems.append(f"{package} (tier {tier[package]}) is named by "
                            f"{title!r}, after a tier-{highest} section")
        highest = max(highest, tier[package])
    return problems


def test_the_architecture_sections_follow_the_layer_order():
    titles = [text for level, text in headings(ARCHITECTURE.read_text())
              if level == 2]
    assert layer_section_problems(titles, LAYERS) == []


def test_the_section_order_on_toy_headings():
    layers = (("util",), ("netsim", "qos"), ("core",))
    assert layer_section_problems(
        ["Execution model", "Tier 0: util", "Tier 2: core", "Tier 1: netsim",
         "Testing"], layers) == [
        "qos (tier 1) has no section",
        "netsim (tier 1) is named by 'Tier 1: netsim', after a tier-2 section"]


def cited_problems(text, root):
    """Each repo path and ``tests/<file>.py::<Name>`` that ``text`` cites in
    backticks and ``root`` does not hold. A path may be relative to
    ``root``, ``root/src`` or ``root/src/repro``; a bare ``::Name`` is in
    the test file cited last."""
    problems, last = [], None
    for span in re.findall(r"`([^`\n]+)`", text):
        test = re.fullmatch(r"(tests/\w+\.py)?((?:::\w+)+)", span)
        if test:
            last = test[1] or last
            names = test[2].split("::")[1:]
            tree = parsed(root / last) if (root / last).exists() else None
            scope = tree.body if tree else []
            for name in names:
                found = [node for node in scope
                         if getattr(node, "name", None) == name
                         or isinstance(node, ast.Assign) and name in [
                             getattr(t, "id", None) for t in node.targets]]
                if not found:
                    problems.append(f"{last}::{'::'.join(names)}")
                    break
                scope = getattr(found[0], "body", [])
        elif re.fullmatch(r"[\w.-]+(/[\w.-]+)*/?", span) and (
                "/" in span or re.search(r"\.(py|md|json|toml)$", span)):
            if not any((base / span).exists() for base in (
                    root, root / "src", root / "src" / "repro")):
                problems.append(span)
    return problems


def test_what_the_architecture_document_cites_exists():
    assert cited_problems(ARCHITECTURE.read_text(), ROOT) == []


def test_the_citation_check_on_a_toy_tree(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "class TestA:\n    def test_b(self):\n        pass\n"
        "TestD = TestA\n")
    (tmp_path / "docs").mkdir()
    text = ("`tests/test_toy.py::TestA`, `::TestA::test_b`, `::TestC`, `::TestD`, "
            "`tests/test_toy.py::TestA::test_c`, `tests/test_gone.py::TestA`, "
            "`docs/`, `docs/GONE.md`, `a plain phrase`, `ok`")
    assert cited_problems(text, tmp_path) == [
        "tests/test_toy.py::TestC", "tests/test_toy.py::TestA::test_c",
        "tests/test_gone.py::TestA", "docs/GONE.md"]


def architecture_citations(text):
    """``(heading or None, where)`` for each mention of ARCHITECTURE in
    ``text``: the quoted heading that follows it, or ``None``."""
    flat = re.sub(r"\s*\n\s*(?:#\s*)?", " ", text)
    return [(match[1], flat[max(0, match.start() - 30):match.end()])
            for match in re.finditer(
                r'ARCHITECTURE(?:\.md)?`?(?:,? *"([^"]+)")?', flat)]


def test_every_citation_of_the_architecture_names_a_heading():
    titles = {text for _, text in headings(ARCHITECTURE.read_text())}
    citing = [*SRC.rglob("*.py"), ROOT / "README.md", ROOT / "DESIGN.md",
              ROOT / "docs" / "BENCHMARKS.md"]
    problems = [f"{path.relative_to(ROOT)}: ...{where}"
                for path in citing
                for heading, where in architecture_citations(path.read_text())
                if heading not in titles]
    assert problems == []


def test_a_citation_names_its_heading_on_toy_text():
    text = ('see docs/ARCHITECTURE.md, "Tier 3: transport", and\n'
            '# `docs/ARCHITECTURE.md`,\n# "Error handling"; ARCHITECTURE §9')
    assert [heading for heading, _ in architecture_citations(text)] == [
        "Tier 3: transport", "Error handling", None]
