"""Request-edge admission control with priority classes.

Overload protection starts where work enters the system: an
:class:`AdmissionController` decides, *before* a request is transmitted,
whether the stack can afford to carry it. Section 3.7's prescription —
priority scheduling plus bandwidth reservation — maps directly onto the
existing :class:`~repro.qos.bandwidth.BandwidthAllocator`: each
**priority class** is a reserved flow (its guaranteed request rate), and
privileged classes (probes, handoffs, distress traffic) may additionally
borrow unreserved headroom. One conserving mechanism therefore paces both
bytes on links and requests at the edge, and the conservation property in
``tests/test_bandwidth.py`` covers admission too.

A refused request is not an error to hide: :meth:`try_admit` returns the
``retry_after_s`` pacing hint (when the class's bucket will next afford the
request), and the RPC / replication clients surface it by rejecting the
promise with :class:`~repro.errors.AdmissionRefused` carrying that hint —
the caller can back off *exactly* as long as needed instead of guessing.

Counters: ``admitted`` and ``rejected`` slots, and the
:attr:`~AdmissionController.rejection_fraction` the overload governor
samples.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import ConfigurationError
from repro.obs.tracing import TRACER
from repro.qos.bandwidth import BandwidthAllocator


class PriorityClass:
    """One admission class: a guaranteed request rate plus privilege.

    ``rate_per_s`` is the sustained admission rate the class is guaranteed;
    it may admit one second's worth back-to-back. ``privileged`` classes
    may also borrow the capacity no class reserved.
    """

    __slots__ = ("name", "rate_per_s", "privileged")

    def __init__(self, name: str, rate_per_s: float,
                 privileged: bool = False) -> None:
        self.name = name
        self.rate_per_s = rate_per_s
        self.privileged = privileged
        if self.rate_per_s <= 0:
            raise ConfigurationError(
                f"class {self.name!r} rate must be positive, got {self.rate_per_s!r}"
            )


class AdmissionController:
    """Token-bucket admission with priority classes over one capacity.

    ``capacity_per_s`` is the total request rate the protected resource is
    believed to sustain; classes reserve guaranteed shares of it and the
    remainder is headroom that privileged classes may borrow. ``now_fn``
    supplies (virtual) time — pass the transport scheduler's ``now``.
    """

    def __init__(
        self,
        now_fn: Callable[[], float],
        capacity_per_s: float,
        classes: Iterable[PriorityClass],
    ):
        classes = list(classes)
        if not classes:
            raise ConfigurationError("admission control needs at least one class")
        self.now_fn = now_fn
        self._classes: Dict[str, PriorityClass] = {}
        # One request = one "bit": rates are requests/sec, bursts requests.
        # burst_s=1.0 so a class's burst is one second of its rate.
        self.allocator = BandwidthAllocator(capacity_per_s, burst_s=1.0)
        now = now_fn()
        for cls in classes:
            if cls.name in self._classes:
                raise ConfigurationError(f"duplicate class {cls.name!r}")
            self._classes[cls.name] = cls
            self.allocator.reserve(cls.name, cls.rate_per_s,
                                   privileged=cls.privileged, now=now)
        self.admitted = 0
        self.rejected = 0

    def classes(self) -> Dict[str, PriorityClass]:
        return dict(self._classes)

    # ------------------------------------------------------------- admission

    def try_admit(self, cls: str = "normal", cost: float = 1.0,
                  now: Optional[float] = None) -> Optional[float]:
        """Admit one request of ``cost`` units for class ``cls``.

        Returns ``None`` when admitted, else the ``retry_after_s`` hint —
        how long until the class (or, for privileged classes, the headroom)
        could afford the request. ``float("inf")`` means "never at this
        cost" (cost exceeds every reachable burst).
        """
        if cls not in self._classes:
            raise ConfigurationError(f"unknown admission class {cls!r}")
        if now is None:
            now = self.now_fn()
        if self.allocator.try_send(cls, cost, now):
            self.admitted += 1
            return None
        retry_after = self.allocator.time_until_available(cls, cost, now)
        self.rejected += 1
        if TRACER.enabled:
            TRACER.instant("admission.rejected", cls=cls,
                           retry_after_s=round(retry_after, 6)
                           if retry_after != float("inf") else -1.0)
        return retry_after

    # ------------------------------------------------------------ inspection

    @property
    def rejection_fraction(self) -> float:
        """Lifetime rejected / (admitted + rejected); the governor's signal."""
        total = self.admitted + self.rejected
        return self.rejected / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejection_fraction": self.rejection_fraction,
        }
