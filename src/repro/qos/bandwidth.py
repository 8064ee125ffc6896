"""Bandwidth allocation.

Section 3.7: transactions of departing services "can be scheduled with high
priority, and possibly allocated more bandwidth"; the literature review also
cites bandwidth-reservation middleware [60]. A :class:`TokenBucket` paces
one flow; a :class:`BandwidthAllocator` manages reservations over a shared
link with admission control and lets privileged flows borrow headroom.

The allocator is *conserving*: across any schedule of ``reserve`` /
``release`` / ``try_send`` calls, the bits it grants inside a window
``[t0, t1]`` never exceed ``capacity_bps * (t1 - t0) + capacity_bps *
burst_s``. Three rules make that hold (and the Hypothesis property test in
``tests/test_bandwidth.py`` checks it under churn):

* every bucket rebuild carries the wall clock (``now``) so a rebuilt
  bucket never retro-refills from time it did not live through;
* a new reservation's initial burst is *carved out of the headroom
  bucket* rather than minted, so reserve/release churn cannot create
  tokens out of thin air;
* releasing a flow returns its unspent tokens to the headroom bucket
  (clamped to the headroom burst), never to a fresh full bucket.

Callers that pace real traffic should pass the current virtual time to
``reserve``/``release`` (the default ``now=0.0`` keeps construction-time
reservations byte-compatible with the historical behavior).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import AdmissionRefused, ConfigurationError


class TokenBucket:
    """Classic token bucket: ``rate_bps`` sustained, ``burst_bits`` burst."""

    __slots__ = ("rate_bps", "burst_bits", "tokens", "last_update")

    def __init__(self, rate_bps: float, burst_bits: float, tokens: float = -1.0,
                 last_update: float = 0.0) -> None:
        self.rate_bps = rate_bps
        self.burst_bits = burst_bits
        self.tokens = tokens
        self.last_update = last_update
        if self.rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate_bps!r}")
        if self.burst_bits <= 0:
            raise ConfigurationError(f"burst must be positive, got {self.burst_bits!r}")
        if self.tokens < 0:
            self.tokens = self.burst_bits

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last_update)
        self.tokens = min(self.burst_bits, self.tokens + elapsed * self.rate_bps)
        self.last_update = now

    def try_consume(self, bits: float, now: float) -> bool:
        """Take ``bits`` if available; returns False (taking nothing) if not."""
        self._refill(now)
        if bits <= self.tokens:
            self.tokens -= bits
            return True
        return False

    def time_until_available(self, bits: float, now: float) -> float:
        """Seconds until ``bits`` tokens will exist (0 if available now)."""
        self._refill(now)
        if bits <= self.tokens:
            return 0.0
        if bits > self.burst_bits:
            return float("inf")  # can never burst that much at once
        return (bits - self.tokens) / self.rate_bps


class BandwidthAllocator:
    """Reservation-based sharing of one link's capacity.

    Flows reserve a sustained rate; admission fails when the sum of
    reservations would exceed capacity. A flow reserved as privileged (a
    privileged admission class) may additionally draw from the unreserved
    headroom bucket.
    """

    def __init__(self, capacity_bps: float, burst_s: float = 0.25):
        if capacity_bps <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity_bps!r}")
        self.capacity_bps = capacity_bps
        self.burst_s = burst_s
        self._flows: Dict[str, TokenBucket] = {}
        self._privileged: Dict[str, bool] = {}
        self._reserved_bps = 0.0
        self._headroom: Optional[TokenBucket] = TokenBucket(
            capacity_bps, capacity_bps * burst_s
        )

    def _rebuild_headroom(self, now: float, carry_tokens: float) -> None:
        """Re-size the headroom bucket to the current free rate.

        ``carry_tokens`` is the token balance the new bucket inherits
        (clamped to its burst). The bucket is stamped with ``now`` so its
        first refill covers only time that actually elapses after the
        rebuild — constructing it with the default ``last_update=0.0``
        would hand the next ``try_send`` a full retroactive refill.
        """
        free = max(0.0, self.capacity_bps - self._reserved_bps)
        if free > 0:
            self._headroom = TokenBucket(
                free, free * self.burst_s,
                tokens=min(max(carry_tokens, 0.0), free * self.burst_s),
                last_update=now,
            )
        else:
            self._headroom = None

    def _recompute_reserved(self) -> None:
        # Recomputed from the live flows instead of maintained by +=/-=:
        # float increments drift over reserve/release churn and eventually
        # refuse admissions that fit (or admit over capacity).
        self._reserved_bps = sum(b.rate_bps for b in self._flows.values())

    # ------------------------------------------------------------ reservation

    def reserve(self, flow_id: str, rate_bps: float,
                privileged: bool = False, now: float = 0.0) -> None:
        """Admit a flow at ``rate_bps``; raises :class:`AdmissionRefused`
        when the link cannot carry it alongside existing reservations.

        The flow's initial burst is funded by the headroom bucket: it gets
        ``min(rate_bps * burst_s, headroom tokens at now)``, and that amount
        leaves the headroom. A fresh allocator therefore still grants every
        first reservation its full burst, but churning reservations cannot
        mint tokens the link never had.
        """
        if flow_id in self._flows:
            raise ConfigurationError(f"flow {flow_id!r} already reserved")
        if self._reserved_bps + rate_bps > self.capacity_bps:
            raise AdmissionRefused(
                f"cannot reserve {rate_bps:g} bps for {flow_id!r}: "
                f"{self.capacity_bps - self._reserved_bps:g} bps free"
            )
        available = 0.0
        if self._headroom is not None:
            self._headroom._refill(now)
            available = self._headroom.tokens
        initial = min(rate_bps * self.burst_s, available)
        self._flows[flow_id] = TokenBucket(
            rate_bps, rate_bps * self.burst_s,
            # A zero carve-out still needs a live bucket; tokens=0 is valid.
            tokens=initial, last_update=now,
        )
        self._privileged[flow_id] = privileged
        self._recompute_reserved()
        self._rebuild_headroom(now, available - initial)

    def release(self, flow_id: str, now: float = 0.0) -> None:
        """Drop a reservation; unspent tokens return to the headroom."""
        bucket = self._flows.pop(flow_id, None)
        self._privileged.pop(flow_id, None)
        if bucket is not None:
            bucket._refill(now)
            carry = bucket.tokens
            if self._headroom is not None:
                self._headroom._refill(now)
                carry += self._headroom.tokens
            self._recompute_reserved()
            self._rebuild_headroom(now, carry)

    # ------------------------------------------------------------------ usage

    def try_send(self, flow_id: str, bits: float, now: float) -> bool:
        """Charge ``bits`` against the flow's reservation (and headroom for
        privileged flows). Returns False if the flow must wait."""
        bucket = self._flows.get(flow_id)
        if bucket is None:
            raise ConfigurationError(f"unknown flow {flow_id!r}")
        if bucket.try_consume(bits, now):
            return True
        if self._privileged.get(flow_id) and self._headroom is not None:
            return self._headroom.try_consume(bits, now)
        return False

    def time_until_available(self, flow_id: str, bits: float, now: float) -> float:
        """Seconds until ``try_send(flow_id, bits)`` would succeed.

        For a privileged flow this is the *minimum* over its own bucket and
        the headroom bucket — the flow's own refill estimate alone would
        make callers sleep longer than ``try_send`` actually requires.
        """
        bucket = self._flows.get(flow_id)
        if bucket is None:
            raise ConfigurationError(f"unknown flow {flow_id!r}")
        wait = bucket.time_until_available(bits, now)
        if self._privileged.get(flow_id) and self._headroom is not None:
            wait = min(wait, self._headroom.time_until_available(bits, now))
        return wait
