"""Regression + property tests for the conserving bandwidth allocator.

The three regression classes here each fail on the pre-fix allocator:

* **retro-refill** — rebuilding the headroom bucket without stamping the
  wall clock handed the next sender a full retroactive refill;
* **reserved-rate drift** — maintaining ``_reserved_bps`` by ``+=``/``-=``
  accumulated float residue that eventually refused admissions that fit;
* **headroom-blind waits** — there was no allocator-level
  ``time_until_available``, so privileged callers computed waits from
  their own bucket alone and slept longer than ``try_send`` required.

The Hypothesis property at the bottom states the conservation law the
fixes exist to uphold: no schedule of reserve/release/send churn can ever
extract more bits from a window than the link could carry.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AdmissionRefused, ConfigurationError
from repro.qos.bandwidth import BandwidthAllocator


class TestHeadroomRetroRefill:
    """Rebuilt buckets must only refill over time they lived through."""

    def test_release_does_not_refill_drained_headroom(self):
        allocator = BandwidthAllocator(1000.0, burst_s=1.0)
        allocator.reserve("vip", 100.0, privileged=True, now=0.0)
        allocator.reserve("other", 100.0, now=0.0)
        # Drain the 800-bit headroom bucket at t=100.
        assert allocator.try_send("vip", 800.0, now=100.0)
        # Releasing a flow rebuilds the headroom bucket. Pre-fix the new
        # bucket carried last_update=0 and refilled 100 retroactive
        # seconds on first use; the only tokens that should exist are the
        # released flow's unspent burst (100 bits).
        allocator.release("other", now=100.0)
        assert not allocator.try_send("vip", 800.0, now=100.0)
        # ... and after real time passes the headroom refills normally.
        assert allocator.try_send("vip", 800.0, now=101.0)

    def test_new_reservation_burst_is_carved_from_headroom(self):
        allocator = BandwidthAllocator(1000.0, burst_s=1.0)
        allocator.reserve("vip", 200.0, privileged=True, now=0.0)
        assert allocator.try_send("vip", 200.0, now=0.0)  # own bucket
        assert allocator.try_send("vip", 800.0, now=0.0)  # all of headroom
        # The link has granted its entire burst budget; a reservation made
        # right now must start empty instead of minting a fresh burst.
        allocator.reserve("late", 500.0, now=0.0)
        assert not allocator.try_send("late", 1.0, now=0.0)
        assert allocator.try_send("late", 500.0, now=1.0)

    def test_fresh_allocator_still_grants_full_initial_bursts(self):
        # The carve-out must not regress the common case: first
        # reservations on an idle link get their whole burst.
        allocator = BandwidthAllocator(1000.0, burst_s=1.0)
        allocator.reserve("a", 400.0, now=0.0)
        allocator.reserve("b", 600.0, now=0.0)
        assert allocator.try_send("a", 400.0, now=0.0)
        assert allocator.try_send("b", 600.0, now=0.0)


class TestReservedRateDrift:
    """The reserved rate is recomputed from live flows, not float-incremented."""

    def test_churn_leaves_no_residue(self):
        allocator = BandwidthAllocator(1.0, burst_s=1.0)
        for _ in range(50):
            allocator.reserve("a", 0.1)
            allocator.reserve("b", 0.2)
            allocator.release("a")
            allocator.release("b")
        # Pre-fix: (0.1 + 0.2) - 0.1 - 0.2 leaves ~2.8e-17 behind per
        # cycle, and the full-capacity reservation below is refused.
        assert allocator._reserved_bps == 0.0
        allocator.reserve("full", 1.0)
        assert allocator._reserved_bps == allocator.capacity_bps

    def test_flows_reports_live_reservations(self):
        allocator = BandwidthAllocator(10.0)
        allocator.reserve("a", 4.0)
        allocator.reserve("b", 2.0)
        assert {f: b.rate_bps for f, b in allocator._flows.items()} == {
            "a": 4.0, "b": 2.0}
        allocator.release("a")
        assert {f: b.rate_bps for f, b in allocator._flows.items()} == {
            "b": 2.0}


class TestTimeUntilAvailable:
    """The allocator-level wait must agree with what try_send would do."""

    def test_privileged_wait_covers_headroom(self):
        allocator = BandwidthAllocator(10000.0, burst_s=1.0)
        allocator.reserve("vip", 1000.0, privileged=True, now=0.0)
        allocator.reserve("plain", 1000.0, now=0.0)
        assert allocator.try_send("vip", 1000.0, now=0.0)  # drain own bucket
        # Own bucket says 1s; the 8000-bit headroom says now. A privileged
        # caller sleeping 1s here would be over-waiting by exactly the
        # amount the pre-fix (flow-bucket-only) estimate reported.
        assert allocator.time_until_available("vip", 1000.0, now=0.0) == 0.0
        assert allocator.try_send("vip", 1000.0, now=0.0)

    def test_wait_is_a_promise_try_send_keeps(self):
        allocator = BandwidthAllocator(10000.0, burst_s=1.0)
        allocator.reserve("plain", 1000.0, now=0.0)
        assert allocator.try_send("plain", 1000.0, now=0.0)
        wait = allocator.time_until_available("plain", 600.0, now=0.0)
        assert wait == pytest.approx(0.6)
        assert not allocator.try_send("plain", 600.0, now=0.0)
        assert allocator.try_send("plain", 600.0, now=wait + 1e-9)

    def test_oversize_is_infinite_unless_headroom_can_carry_it(self):
        allocator = BandwidthAllocator(10000.0, burst_s=1.0)
        allocator.reserve("vip", 1000.0, privileged=True, now=0.0)
        allocator.reserve("plain", 1000.0, now=0.0)
        # 2000 bits exceed either flow's own burst (1000)...
        assert math.isinf(allocator.time_until_available("plain", 2000.0, now=0.0))
        # ... but the privileged flow can assemble it from headroom.
        assert allocator.time_until_available("vip", 2000.0, now=0.0) == 0.0
        assert allocator.try_send("vip", 2000.0, now=0.0)

    def test_unknown_flow_rejected(self):
        allocator = BandwidthAllocator(1000.0)
        with pytest.raises(ConfigurationError):
            allocator.time_until_available("ghost", 1.0, now=0.0)


# One reservable rate per flow slot; they intentionally oversubscribe the
# 1000 bps link (1300 total) so admission contention is part of the churn.
_RATES = (100.0, 250.0, 400.0, 550.0)
_CAPACITY = 1000.0
_BURST_S = 0.5

_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.sampled_from(
            ["reserve", "reserve_vip", "release", "send_half", "send_burst"]
        ),
        st.integers(min_value=0, max_value=len(_RATES) - 1),
    ),
    max_size=80,
)


class TestConservation:
    @settings(max_examples=200)
    @given(ops=_ops)
    def test_window_grants_never_exceed_capacity_plus_burst(self, ops):
        """Bits granted in [0, t1] <= capacity * t1 + capacity * burst_s.

        This is the allocator's conservation contract under arbitrary
        reserve/release/try_send churn, including privileged headroom
        borrowing. Pre-fix, reserve/release cycles minted a fresh burst
        per cycle and a zero-elapsed-time schedule could extract
        unbounded bits from the link.
        """
        allocator = BandwidthAllocator(_CAPACITY, burst_s=_BURST_S)
        now = 0.0
        granted = 0.0
        for dt, action, idx in ops:
            now += dt
            flow_id = f"f{idx}"
            live = flow_id in allocator._flows
            if action in ("reserve", "reserve_vip"):
                if not live:
                    try:
                        allocator.reserve(
                            flow_id, _RATES[idx],
                            privileged=(action == "reserve_vip"), now=now,
                        )
                    except AdmissionRefused:
                        pass  # oversubscribed — part of the churn
            elif action == "release":
                if live:
                    allocator.release(flow_id, now=now)
            elif live:
                burst = _RATES[idx] * _BURST_S
                bits = burst / 2.0 if action == "send_half" else burst
                if allocator.try_send(flow_id, bits, now):
                    granted += bits
        bound = _CAPACITY * now + _CAPACITY * _BURST_S
        assert granted <= bound + 1e-6
