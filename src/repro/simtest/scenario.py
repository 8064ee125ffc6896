"""Scenarios: the serializable unit of simulation testing.

A :class:`Scenario` is a timed trace of workload and fault steps plus the
two seeds that close over all remaining nondeterminism (the network/fault
RNGs and the event-loop tie-breaker). Executing the same scenario twice
produces byte-identical results, which is what makes exploration findings
shrinkable and repro files replayable.

Steps carry only JSON scalars so a scenario round-trips through
``to_dict``/``from_dict`` losslessly — the repro-file format is just a
scenario plus the expected divergence signature.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.util.rng import split_rng
from repro.workloads.campaign import ACCOUNTS

#: Virtual-time window during which scenario steps fire.
HORIZON_S = 12.0

#: Shared-object keys and tuple kinds the workload cycles through.
SO_KEYS = ("cfg", "route", "limit")
TS_KINDS = ("job", "evt")

#: Nodes faults may crash (the monitor and server stay up so the oracles
#: always have a vantage point; partitions and loss still reach everyone).
CRASH_TARGETS = ("n0_1", "n1_0")

#: Partition shapes, chosen by index so steps stay JSON-scalar.
PARTITION_GROUPS = (
    ("n1_1",),
    ("n0_1",),
    ("n1_0", "n1_1"),
)

#: op name -> relative weight during generation.
_WORKLOAD_WEIGHTS = [
    ("bulk", 22),
    ("transfer", 12),
    ("balance", 6),
    ("so_write", 8),
    ("so_read", 8),
    ("ts_out", 6),
    ("ts_inp", 4),
    ("ts_rdp", 3),
    ("ts_in", 3),
    ("lookup", 8),
    ("provide", 5),
    ("withdraw", 3),
    ("milan", 5),
]
_FAULT_WEIGHTS = [
    ("crash", 5),
    ("blip", 2),
    ("partition", 4),
    ("loss", 5),
    ("degrade", 3),
    ("tamper", 4),
]


class Step:
    """One timed action; ``args`` holds JSON scalars only."""

    __slots__ = ("at", "op", "args")

    def __init__(self, at: float, op: str, args: Tuple[Any, ...] = ()) -> None:
        self.at = at
        self.op = op
        self.args = args

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.at, self.op, self.args)
            == (other.at, other.op, other.args)
        )

    def __hash__(self) -> int:
        return hash((self.at, self.op, self.args))

    def to_dict(self) -> Dict[str, Any]:
        return {"at": self.at, "op": self.op, "args": list(self.args)}

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Step":
        return Step(float(raw["at"]), str(raw["op"]), tuple(raw["args"]))


class Scenario:
    """A complete, replayable run description."""

    __slots__ = ("seed", "tie_seed", "steps", "horizon_s")

    def __init__(self, seed: int, tie_seed: int, steps: Tuple[Step, ...] = (),
                 horizon_s: float = HORIZON_S) -> None:
        self.seed = seed
        self.tie_seed = tie_seed
        self.steps = steps
        self.horizon_s = horizon_s

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.seed, self.tie_seed, self.steps, self.horizon_s)
            == (other.seed, other.tie_seed, other.steps, other.horizon_s)
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.tie_seed, self.steps, self.horizon_s))

    def with_steps(self, steps: List[Step]) -> "Scenario":
        return Scenario(self.seed, self.tie_seed, tuple(steps), self.horizon_s)

    # ------------------------------------------------------------ wire form

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "tie_seed": self.tie_seed,
            "horizon_s": self.horizon_s,
            "steps": [s.to_dict() for s in self.steps],
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Scenario":
        return Scenario(
            seed=int(raw["seed"]),
            tie_seed=int(raw["tie_seed"]),
            horizon_s=float(raw.get("horizon_s", HORIZON_S)),
            steps=tuple(Step.from_dict(s) for s in raw["steps"]),
        )


def _pick(rng, weighted: List[Tuple[str, int]]) -> str:
    total = sum(w for _op, w in weighted)
    roll = rng.uniform(0.0, total)
    for op, weight in weighted:
        roll -= weight
        if roll <= 0.0:
            return op
    return weighted[-1][0]


def generate_scenario(seed: int, tie_seed: int, n_steps: int = 32,
                      fault_fraction: float = 0.25) -> Scenario:
    """Generate a scenario as a pure function of its arguments.

    Identifiers that must be unique (bulk indices, txids, extra-service
    indices) are assigned from the generation counter, so they survive step
    deletion during shrinking without renumbering.
    """
    rng = split_rng(seed, "simtest.scenario")
    steps: List[Step] = []
    next_bulk = 0
    next_extra = 0
    provided: List[int] = []
    for i in range(n_steps):
        at = round(rng.uniform(0.5, HORIZON_S), 3)
        if rng.random() < fault_fraction:
            op = _pick(rng, _FAULT_WEIGHTS)
            if op == "crash":
                args: Tuple[Any, ...] = (
                    rng.choice(CRASH_TARGETS), round(rng.uniform(0.3, 2.5), 3),
                )
            elif op == "blip":
                args = (rng.choice(CRASH_TARGETS),)
            elif op == "partition":
                args = (
                    rng.randrange(len(PARTITION_GROUPS)),
                    round(rng.uniform(0.5, 3.0), 3),
                )
            elif op == "loss":
                args = (round(rng.uniform(0.5, 2.5), 3),
                        round(rng.uniform(0.2, 0.9), 3))
            elif op == "degrade":
                args = (round(rng.uniform(0.5, 2.5), 3),
                        round(rng.uniform(0.05, 0.4), 3))
            else:  # tamper
                args = (round(rng.uniform(0.5, 2.5), 3),
                        round(rng.uniform(0.05, 0.3), 3))
        else:
            op = _pick(rng, _WORKLOAD_WEIGHTS)
            if op == "withdraw" and not provided:
                op = "provide"
            if op == "bulk":
                args = (next_bulk,)
                next_bulk += 1
            elif op == "transfer":
                src, dst = rng.sample(ACCOUNTS, 2)
                args = (f"t{i}", src, dst, rng.randint(1, 20),
                        rng.choice((0, 1)))
            elif op == "balance":
                args = (rng.choice(ACCOUNTS), rng.choice((0, 1)))
            elif op == "so_write":
                args = (rng.choice(SO_KEYS), rng.randint(0, 999),
                        rng.choice((0, 1)))
            elif op == "so_read":
                args = (rng.choice(SO_KEYS), rng.choice((0, 1)))
            elif op == "ts_out":
                args = (rng.choice(TS_KINDS), rng.randint(0, 99),
                        rng.choice((0, 1)))
            elif op in ("ts_inp", "ts_rdp", "ts_in"):
                args = (rng.choice(TS_KINDS), rng.choice((0, 1)))
            elif op == "lookup":
                args = (rng.choice(("ledger", "extra")),)
            elif op == "provide":
                args = (next_extra,)
                provided.append(next_extra)
                next_extra += 1
            elif op == "withdraw":
                args = (rng.choice(provided),)
            else:  # milan
                args = (rng.randrange(1 << 16),)
        steps.append(Step(at, op, args))
    steps.sort(key=lambda s: s.at)
    return Scenario(seed=seed, tie_seed=tie_seed, steps=tuple(steps))
