"""Benchmarks for the incremental reconfiguration engine.

The hot loop of every lifetime experiment is ``advance_time`` +
``reconfigure`` over a slowly-draining fleet. These benches pin down the
three regimes of that loop:

* **cold** — every reconfigure re-enumerates minimal feasible sets (the
  cache is cleared each round; this is what the loop cost before the
  engine existed, plus cache bookkeeping);
* **uncached** — ``Milan(policy, incremental=False)``, the engine disabled
  outright (the true pre-engine baseline, no bookkeeping);
* **warm** — energy-only rounds: sensors drain but none deplete, so the
  structural fingerprint is unchanged and the engine serves candidates
  from cache, only re-scoring lifetimes.

``test_warm_fastpath_speedup`` is a plain assertion (not a benchmark)
guarding the tentpole claim: warm energy-only reconfiguration must be at
least 10x faster than cold enumeration.
"""

import time

from repro.core.milan import Milan
from repro.core.policy import ApplicationPolicy
from repro.core.requirements import VariableRequirements
from repro.core.sensors import SensorInfo

#: Same shape as bench_micro's enumeration bench: 12 sensors over three
#: variables, requirements tight enough that minimal sets need 3-5 members.
FLEET_SIZE = 12
REQUIREMENTS = {"v0": 0.9, "v1": 0.85, "v2": 0.8}


def _policy() -> ApplicationPolicy:
    requirements = VariableRequirements()
    for variable, reliability in REQUIREMENTS.items():
        requirements.require("run", variable, reliability)
    return ApplicationPolicy(
        name="bench-reconfigure",
        requirements=requirements,
        initial_state="run",
        selection="balanced",
    )


def _fleet():
    return [
        SensorInfo(f"s{i}", {f"v{i % 3}": 0.6 + 0.04 * (i % 8)},
                   active_power_w=0.01, energy_j=1e9)
        for i in range(FLEET_SIZE)
    ]


def _build(incremental: bool = True) -> Milan:
    milan = Milan(_policy(), incremental=incremental)
    milan.auto_reconfigure = False
    for sensor in _fleet():
        milan.add_sensor(sensor)
    milan.reconfigure()
    return milan


def test_reconfigure_cold(benchmark):
    milan = _build()

    def cold_round():
        milan.engine.clear()
        milan.reconfigure()
        return milan.current_configuration

    assert benchmark(cold_round) is not None


def test_reconfigure_uncached(benchmark):
    milan = _build(incremental=False)

    def uncached_round():
        milan.reconfigure()
        return milan.current_configuration

    assert benchmark(uncached_round) is not None


def test_reconfigure_warm_energy_only(benchmark):
    milan = _build()
    drain = {"tick": 0}

    def warm_round():
        # An energy-only delta: drains are huge in joules but nobody
        # depletes, so the structural fingerprint — and the cached
        # candidate list — survives.
        drain["tick"] += 1
        for sensor_id in list(milan.sensors):
            milan.update_sensor_energy(sensor_id, 1e9 - drain["tick"] * 1e-3)
        milan.reconfigure()
        return milan.current_configuration

    assert benchmark(warm_round) is not None


def test_lifetime_loop_warm(benchmark):
    milan = _build()

    def lifetime_chunk():
        for _ in range(20):
            milan.advance_time(0.001)
            milan.reconfigure()
        return milan.current_configuration

    assert benchmark(lifetime_chunk) is not None


def test_warm_fastpath_speedup():
    """Acceptance gate: warm energy-only rounds >= 10x faster than cold."""
    milan = _build()
    rounds = 30

    def measure(prepare) -> float:
        best = float("inf")
        for _ in range(3):  # best-of-3 to shrug off scheduler noise
            started = time.perf_counter()
            for i in range(rounds):
                prepare(i)
                milan.reconfigure()
            best = min(best, time.perf_counter() - started)
        return best

    cold_s = measure(lambda i: milan.engine.clear())
    milan.reconfigure()  # re-warm after the last clear
    warm_s = measure(
        lambda i: milan.update_sensor_energy("s0", 1e9 - (i + 1) * 1e-3)
    )
    speedup = cold_s / warm_s
    assert speedup >= 10.0, (
        f"warm energy-only reconfigure only {speedup:.1f}x faster than cold "
        f"(cold {cold_s * 1e3:.2f}ms, warm {warm_s * 1e3:.2f}ms for "
        f"{rounds} rounds)"
    )
