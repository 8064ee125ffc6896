"""Traffic models: seeded arrival processes for workload scenarios.

A traffic model answers "when do requests arrive, and how big are they" —
nothing else. An open-loop model's schedule is a pure function of
``(model, seed, horizon, rate)``: two flat arrays, times as ``array("d")``
and sizes as ``array("I")`` (12 bytes an arrival, not an object each),
which the runner streams into the simulator one arrival at a time
(:meth:`~repro.netsim.simulator.Simulator.schedule_series`). The
closed-loop model instead drives a fixed population of clients that each
wait for the previous response plus a think time (so offered load backs
off when the system slows down — the classic open/closed distinction).

Invariants every model guarantees (pinned by Hypothesis properties in
``tests/test_workload_traffic.py``):

* arrival times are strictly positive, non-decreasing, and < ``horizon_s``;
* sizes are positive integers within the model's declared bounds;
* the same ``(seed, horizon, rate)`` always yields the identical schedule,
  and RNG streams are label-split so models never share draws.
"""

from __future__ import annotations

import math
import random
from array import array
from heapq import merge
from typing import Any, Dict, Tuple

from repro.workloads.registry import traffic_model
from repro.util.rng import split_rng

#: An arrival schedule: ``times[k]`` seconds from scenario start and
#: ``sizes[k]`` payload bytes for request ``k``.
Schedule = Tuple["array[float]", "array[int]"]


def _fixed_size(times: "array[float]", size: int) -> Schedule:
    return times, array("I", [size]) * len(times)


class TrafficModel:
    """Base class; subclasses register with :func:`~repro.workloads.registry.traffic_model`."""

    #: Filled by the decorator.
    name: str = ""
    description: str = ""
    #: Closed-loop models drive clients instead of a precomputed schedule.
    closed_loop: bool = False
    #: Fixed request payload size unless the model varies it per arrival.
    size_bytes: int = 64

    def _stream(self, seed: int, label: str = "") -> random.Random:
        return split_rng(seed, f"traffic:{self.name}:{label}")

    def arrivals(self, seed: int, horizon_s: float,
                 rate_rps: float) -> Schedule:
        raise NotImplementedError

    def spec(self) -> Dict[str, Any]:
        """Canonical parameters, embedded in the scorecard."""
        return {"name": self.name, "closed_loop": self.closed_loop,
                "size_bytes": self.size_bytes}


def _poisson_times(rng: random.Random, rate_rps: float,
                   start_s: float, end_s: float) -> "array[float]":
    """Homogeneous Poisson arrival times in [start_s, end_s)."""
    times = array("d")
    t = start_s
    while True:
        t += rng.expovariate(rate_rps)
        if t >= end_s:
            return times
        times.append(t)


@traffic_model("diurnal", description="sinusoidal day/night rate curve "
               "(one full cycle per horizon), thinned Poisson arrivals")
class DiurnalTraffic(TrafficModel):
    """Non-homogeneous Poisson: rate(t) = rate * (1 + amp * sin(2*pi*t/H)).

    One "day" is compressed into the scenario horizon, so every run sees a
    full peak and trough. Arrivals come from thinning a homogeneous
    process at the peak rate, which keeps the schedule a pure function of
    the seed.
    """

    amplitude = 0.6

    def arrivals(self, seed: int, horizon_s: float,
                 rate_rps: float) -> Schedule:
        rng = self._stream(seed)
        peak = rate_rps * (1.0 + self.amplitude)
        times = array("d")
        for t in _poisson_times(rng, peak, 0.0, horizon_s):
            rate_t = rate_rps * (
                1.0 + self.amplitude * math.sin(2.0 * math.pi * t / horizon_s)
            )
            if rng.random() < rate_t / peak:
                times.append(t)
        return _fixed_size(times, self.size_bytes)

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "amplitude": self.amplitude}


@traffic_model("heavy_tail", description="Poisson arrivals with bounded-"
               "Pareto flow sizes (most requests small, a few huge)")
class HeavyTailTraffic(TrafficModel):
    """Constant-rate arrivals whose sizes follow a bounded Pareto law."""

    alpha = 1.4
    min_size = 32
    max_size = 4096

    def arrivals(self, seed: int, horizon_s: float,
                 rate_rps: float) -> Schedule:
        rng = self._stream(seed)
        times = _poisson_times(rng, rate_rps, 0.0, horizon_s)
        sizes = array("I")
        for _ in times:
            u = 1.0 - rng.random()  # in (0, 1]; never a zero division below
            size = int(self.min_size / u ** (1.0 / self.alpha))
            sizes.append(min(self.max_size, size))
        return times, sizes

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "alpha": self.alpha,
                "min_size": self.min_size, "max_size": self.max_size}


@traffic_model("flash_crowd", description="steady base load plus a "
               "multiplied spike window (the PR-9 crowd shape)")
class FlashCrowdTraffic(TrafficModel):
    """Baseline Poisson plus a rate-multiplied spike window.

    The spike window is a fixed fraction of the horizon so the same model
    composes with any scenario length; :meth:`spike_window` exposes it for
    the property tests and for archetypes that want to judge in-spike
    behavior separately.
    """

    size_bytes = 48
    spike_start_frac = 0.4
    spike_duration_frac = 0.2
    multiplier = 6.0

    def spike_window(self, horizon_s: float) -> Tuple[float, float]:
        start = self.spike_start_frac * horizon_s
        return (start, start + self.spike_duration_frac * horizon_s)

    def arrivals(self, seed: int, horizon_s: float,
                 rate_rps: float) -> Schedule:
        rng = self._stream(seed)
        base = _poisson_times(rng, rate_rps, 0.0, horizon_s)
        spike_start, spike_end = self.spike_window(horizon_s)
        spike = _poisson_times(
            rng, rate_rps * (self.multiplier - 1.0), spike_start, spike_end
        )
        return _fixed_size(array("d", merge(base, spike)), self.size_bytes)

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "spike_start_frac": self.spike_start_frac,
                "spike_duration_frac": self.spike_duration_frac,
                "multiplier": self.multiplier}


@traffic_model("closed_loop", description="fixed client population, each "
               "waiting for its response plus an exponential think time")
class ClosedLoopTraffic(TrafficModel):
    """Closed-loop arrivals: offered load self-limits under slowdown.

    The mean think time is derived from the archetype's nominal rate
    (``clients / rate``) so open- and closed-loop scenarios offer
    comparable load when the system keeps up. :meth:`arrivals` returns the
    zero-service-time projection of the think streams — what the clients
    *would* submit if every response were instant — which is what the
    reproducibility and monotonicity properties quantify over; the runner
    drives the real request-response loop via :meth:`think_s`.
    """

    closed_loop = True
    clients = 4

    def think_mean_s(self, rate_rps: float) -> float:
        return self.clients / rate_rps

    def think_s(self, rng: random.Random, rate_rps: float) -> float:
        return rng.expovariate(1.0 / self.think_mean_s(rate_rps))

    def client_stream(self, seed: int, client: int) -> random.Random:
        return self._stream(seed, f"client{client}")

    def arrivals(self, seed: int, horizon_s: float,
                 rate_rps: float) -> Schedule:
        streams = []
        for client in range(self.clients):
            rng = self.client_stream(seed, client)
            times = array("d")
            t = 0.0
            while True:
                t += self.think_s(rng, rate_rps)
                if t >= horizon_s:
                    break
                times.append(t)
            streams.append(times)
        return _fixed_size(array("d", merge(*streams)), self.size_bytes)

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "clients": self.clients}
