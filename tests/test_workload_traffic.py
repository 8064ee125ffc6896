"""Property-based tests (hypothesis) on workload traffic models.

The determinism contract for the whole scenario harness rests on the
traffic layer: arrival schedules must be pure functions of ``(model,
seed)``, time-ordered, and confined to the horizon, for every model and
any reasonable parameters — not just the ones the goldens happen to use.
"""

from hypothesis import example, given, settings, strategies as st

from repro.workloads import TRAFFIC_MODELS
from repro.workloads.traffic import (
    FlashCrowdTraffic,
    HeavyTailTraffic,
)

MODEL_NAMES = sorted(TRAFFIC_MODELS)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
horizons = st.floats(min_value=1.0, max_value=120.0,
                     allow_nan=False, allow_infinity=False)
rates = st.floats(min_value=0.5, max_value=50.0,
                  allow_nan=False, allow_infinity=False)


@given(name=st.sampled_from(MODEL_NAMES), seed=seeds,
       horizon_s=horizons, rate_rps=rates)
@settings(max_examples=60)
def test_arrivals_are_nonnegative_monotone_and_bounded(
        name, seed, horizon_s, rate_rps):
    times, sizes = TRAFFIC_MODELS[name].factory().arrivals(
        seed, horizon_s, rate_rps
    )
    # The compact form: flat arrays, one time and one size per arrival.
    assert (times.typecode, sizes.typecode) == ("d", "I")
    assert len(times) == len(sizes)
    previous = 0.0
    for at, size in zip(times, sizes):
        assert 0.0 <= at < horizon_s
        assert at >= previous  # non-decreasing: a schedule, not a set
        assert size > 0
        previous = at


@given(name=st.sampled_from(MODEL_NAMES), seed=seeds, rate_rps=rates)
@settings(max_examples=40)
def test_arrivals_are_reproducible_from_model_and_seed(name, seed, rate_rps):
    first = TRAFFIC_MODELS[name].factory().arrivals(seed, 30.0, rate_rps)
    again = TRAFFIC_MODELS[name].factory().arrivals(seed, 30.0, rate_rps)
    assert first[0].tobytes() == again[0].tobytes()  # bit-for-bit times
    assert first[1] == again[1]


@given(name=st.sampled_from(MODEL_NAMES), seed=seeds)
@settings(max_examples=30)
def test_different_seeds_give_different_schedules(name, seed):
    model = TRAFFIC_MODELS[name].factory()
    assert model.arrivals(seed, 30.0, 5.0) != \
        model.arrivals(seed + 1, 30.0, 5.0)


@given(seed=seeds, horizon_s=horizons)
@settings(max_examples=40)
def test_heavy_tail_sizes_stay_within_declared_bounds(seed, horizon_s):
    model = HeavyTailTraffic()
    _, sizes = model.arrivals(seed, horizon_s, 10.0)
    for size in sizes:
        assert model.min_size <= size <= model.max_size


@given(seed=seeds, horizon_s=horizons)
@example(seed=112725, horizon_s=1.0)  # sampled at 1 s: 5 in the window, 25.0/s vs 2 x 13.75/s
@settings(max_examples=40)
def test_flash_crowd_spike_window_matches_spec(seed, horizon_s):
    """The spike window sits where the spec says, and the arrival rate
    inside it visibly exceeds the base-rate background.

    The window arithmetic is exact at any horizon. The rate ratio is a
    *sampled* quantity, so it is taken at no less than 30 s: there the
    window expects 288 arrivals and the background 192, and the Chernoff
    bound on P(inside rate <= 2 x outside rate) is 8.6e-29 per example,
    falling as the horizon grows. At the 1 s minimum the window expects ~10
    arrivals and Poisson noise alone failed the assertion (pinned above).
    """
    model = FlashCrowdTraffic()
    start, end = model.spike_window(horizon_s)
    assert abs(start - model.spike_start_frac * horizon_s) < 1e-9
    assert abs((end - start) - model.spike_duration_frac * horizon_s) < 1e-9
    assert end <= horizon_s

    rate = 8.0
    sampled_s = max(horizon_s, 30.0)
    start, end = model.spike_window(sampled_s)
    times, _ = model.arrivals(seed, sampled_s, rate)
    inside = sum(1 for at in times if start <= at < end)
    outside = len(times) - inside
    inside_rate = inside / (end - start)
    outside_rate = outside / (sampled_s - (end - start))
    # Expected ratio is `multiplier`x (6x); 2x is the margin the bound
    # above is computed for.
    assert inside_rate > 2.0 * outside_rate


def test_spec_reports_closed_loop_flag():
    specs = {name: TRAFFIC_MODELS[name].factory().spec()
             for name in MODEL_NAMES}
    assert specs["closed_loop"]["closed_loop"] is True
    assert all(not specs[name]["closed_loop"]
               for name in MODEL_NAMES if name != "closed_loop")
