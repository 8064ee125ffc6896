"""Deliberately planted bugs: proof the harness catches real defects.

Each plant patches one implementation method with a subtly broken variant
(the kind of off-by-one or forgotten-branch bug refactors introduce),
scoped to a ``with planted(name):`` block and always restored. The test
suite and the CI smoke step run the explorer against a plant and assert
that (a) a divergence is found and (b) the shrinker reduces the trigger to
a handful of steps that replay deterministically.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Tuple


def _plant_broken_watermark() -> Callable[[], None]:
    """Duplicate suppression forgets the watermark itself.

    ``seq <= watermark`` becomes ``seq < watermark``: a retransmission of
    the exact frame the watermark points at (original ack lost) is
    delivered a second time. Caught by the delivery oracle as a
    delivery-mismatch plus receiver-state divergence.
    """
    from repro.transport import reliable

    original = reliable._PeerReceiveState.is_duplicate

    def broken(self, seq: int) -> bool:
        return seq < self.watermark or seq in self.window

    reliable._PeerReceiveState.is_duplicate = broken
    return lambda: setattr(reliable._PeerReceiveState, "is_duplicate", original)


def _plant_truncated_feasibility() -> Callable[[], None]:
    """The feasible-set search silently drops its last result.

    Caught by the MiLAN oracle on the first fleet whose enumeration has
    more than one minimal set.
    """
    from repro.simtest import oracles

    original = oracles.minimal_feasible_sets

    def broken(sensors, requirements, max_size=None, max_sets=256):
        result = original(sensors, requirements, max_size=max_size,
                          max_sets=max_sets)
        return result[:-1] if len(result) > 1 else result

    oracles.minimal_feasible_sets = broken
    return lambda: setattr(oracles, "minimal_feasible_sets", original)


def _plant_double_apply() -> Callable[[], None]:
    """The ledger forgets txid dedup, so RPC retries double-apply.

    Caught by the ledger oracle's lockstep balance comparison the first
    time a retried transfer lands twice.
    """
    from repro.workloads.campaign import Ledger

    original = Ledger.transfer

    def broken(self, txid: str, src: str, dst: str, amount: int) -> bool:
        self.applied.add(txid)
        self.balances[src] -= amount
        self.balances[dst] += amount
        return True

    Ledger.transfer = broken
    return lambda: setattr(Ledger, "transfer", original)


def _plant_ghost_withdraw() -> Callable[[], None]:
    """Withdraw forgets to unpublish, leaving a ghost service.

    The provider keeps replying for a service the application withdrew.
    Caught as a stale/phantom result or by the post-heal exact-convergence
    probe.
    """
    from repro.discovery import distributed

    original = distributed.DistributedDiscovery.withdraw

    def broken(self, service_id: str) -> None:
        self._withdrawn.discard(service_id)

    distributed.DistributedDiscovery.withdraw = broken
    return lambda: setattr(distributed.DistributedDiscovery, "withdraw",
                           original)


def _plant_eager_get() -> Callable[[], None]:
    """The host answers gets while invalidations are still outstanding.

    In write-through mode a get must wait until the pending write's
    invalidation round completes; answering early leaks the new value to
    one reader while a cache whose invalidation was lost can still serve
    the old one. Caught by the linearizability checker over shared-object
    histories (a stale read strictly after a fresh one).
    """
    from repro.transactions import sharedobjects

    original = sharedobjects.SharedObjectHost._get_must_wait

    def broken(self, key):
        return False

    sharedobjects.SharedObjectHost._get_must_wait = broken
    return lambda: setattr(sharedobjects.SharedObjectHost, "_get_must_wait",
                           original)


#: name -> (installer returning the restore callable, one-line description).
PLANTS: Dict[str, Tuple[Callable[[], Callable[[], None]], str]] = {
    "broken-watermark": (
        _plant_broken_watermark,
        "reliable dedup uses < instead of <= against the watermark",
    ),
    "truncated-feasibility": (
        _plant_truncated_feasibility,
        "feasible-set search drops its last minimal set",
    ),
    "double-apply": (
        _plant_double_apply,
        "ledger forgets txid dedup; retries double-apply",
    ),
    "ghost-withdraw": (
        _plant_ghost_withdraw,
        "discovery withdraw leaves the service advertised",
    ),
    "eager-get": (
        _plant_eager_get,
        "shared-object host answers gets during pending invalidations",
    ),
}


@contextmanager
def planted(name: str) -> Iterator[None]:
    """Install a plant for the duration of the block; always restores."""
    try:
        installer, _description = PLANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown plant {name!r}; available: {sorted(PLANTS)}"
        ) from None
    restore = installer()
    try:
        yield
    finally:
        restore()
