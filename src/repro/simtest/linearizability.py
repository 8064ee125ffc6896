"""A Wing–Gong linearizability checker over recorded histories.

A history is a list of :class:`Op` intervals. The checker searches for a
total order (a *linearization*) of the operations that (a) respects real
time — an operation that completed before another was invoked must come
first — and (b) is legal for a sequential model of the object. Operations
still pending at the end of the run may take effect at any point after
their invocation, or never; their results are unconstrained.

The search is the classic Wing & Gong loop: repeatedly pick an operation
that is minimal (no unlinearized *completed* operation responded before it
was invoked), apply it to the model, and recurse, memoizing visited
``(linearized-set, model-state)`` pairs so equivalent prefixes are explored
once. Models return *all* legal ``(next_state, result)`` outcomes for an
operation (a tuple-space ``inp`` may legally return any matching tuple),
and the checker prunes outcomes that contradict the recorded result.

Linearizability is a local (compositional) property, so callers check each
independent object — each shared-object key, each tuple kind — separately,
which keeps the search small.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


class Op:
    """One operation interval in a history.

    ``response`` is ``None`` for operations still pending when the run
    ended; their ``result`` is meaningless and ignored.
    """

    __slots__ = ("client", "op", "args", "invoke", "response", "result")

    def __init__(self, client: str, op: str, args: Tuple[Any, ...],
                 invoke: float, response: Optional[float],
                 result: Any = None) -> None:
        self.client = client
        self.op = op
        self.args = args
        self.invoke = invoke
        self.response = response
        self.result = result

    @property
    def completed(self) -> bool:
        return self.response is not None


def canonical(value: Any) -> Any:
    """Normalize codec round-trip artifacts (lists) for result comparison."""
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    return value


class SequentialModel:
    """Interface for the sequential specification of one object."""

    def initial(self) -> Any:
        raise NotImplementedError

    def apply(self, state: Any, op: str, args: Tuple[Any, ...]) -> Iterable[Tuple[Any, Any]]:
        """All legal ``(next_state, result)`` outcomes of ``op`` in ``state``.

        Returning no outcomes means the operation cannot take effect in this
        state (e.g. a blocking take with no matching tuple).
        """
        raise NotImplementedError


class CheckAborted(Exception):
    """The search exceeded its state budget; the verdict is inconclusive."""


def check_linearizable(
    history: Sequence[Op],
    model: SequentialModel,
    max_states: int = 500_000,
) -> Optional[str]:
    """Return ``None`` if the history is linearizable, else a description.

    Raises :class:`CheckAborted` when more than ``max_states`` distinct
    ``(linearized-set, state)`` pairs are visited — a budget guard, not a
    verdict.
    """
    ops = sorted(history, key=lambda o: (o.invoke, o.response is None))
    n = len(ops)
    if n == 0:
        return None
    completed_mask = 0
    for i, op in enumerate(ops):
        if op.completed:
            completed_mask |= 1 << i
    if completed_mask == 0:
        return None  # nothing constrained: all-pending histories are trivially ok

    initial = model.initial()
    visited = {(0, initial)}
    stack: List[Tuple[int, Any]] = [(0, initial)]
    while stack:
        mask, state = stack.pop()
        if mask & completed_mask == completed_mask:
            return None
        # Real-time bound: nothing invoked after the earliest outstanding
        # completed response may be linearized yet.
        min_response = min(
            ops[i].response  # type: ignore[misc]
            for i in range(n)
            if completed_mask >> i & 1 and not mask >> i & 1
        )
        for i in range(n):
            if mask >> i & 1:
                continue
            op = ops[i]
            if op.invoke > min_response:
                continue
            bit = 1 << i
            want = canonical(op.result) if op.completed else None
            for next_state, result in model.apply(state, op.op, op.args):
                if op.completed and canonical(result) != want:
                    continue
                key = (mask | bit, next_state)
                if key in visited:
                    continue
                if len(visited) >= max_states:
                    raise CheckAborted(
                        f"exceeded {max_states} states over {n} operations"
                    )
                visited.add(key)
                stack.append(key)
    witnesses = [ops[i] for i in range(n) if completed_mask >> i & 1]
    return (
        f"no linearization exists for {len(witnesses)} completed operations "
        f"(first: {witnesses[0].client} {witnesses[0].op}{witnesses[0].args} "
        f"-> {witnesses[0].result!r})"
    )


# --------------------------------------------------------------------- models


class RegisterModel(SequentialModel):
    """A versioned register: one shared-object key.

    State is ``(value, version)``. ``write`` returns the new version (the
    put-ack payload); ``read`` returns the value (``None`` before any write,
    matching a host miss).
    """

    def initial(self) -> Any:
        return (None, 0)

    def apply(self, state: Any, op: str, args: Tuple[Any, ...]) -> Iterable[Tuple[Any, Any]]:
        value, version = state
        if op == "read":
            return [(state, value)]
        if op == "write":
            return [((canonical(args[0]), version + 1), version + 1)]
        raise ValueError(f"register model cannot apply {op!r}")


class TupleSpaceModel(SequentialModel):
    """A bag of tuples of one kind (templates here are kind-only).

    ``out`` adds and echoes the tuple; probes (``inp``/``rdp``) return a
    matching tuple, or ``None`` only when nothing matches; blocking forms
    (``in``/``rd``) cannot take effect while nothing matches.
    """

    def initial(self) -> Any:
        return ()

    def apply(self, state: Any, op: str, args: Tuple[Any, ...]) -> Iterable[Tuple[Any, Any]]:
        bag: Tuple[Any, ...] = state
        if op == "out":
            added = canonical(args)
            return [(tuple(sorted(bag + (added,), key=repr)), added)]
        if op in ("inp", "in"):
            outcomes = [
                (bag[:i] + bag[i + 1:], bag[i])
                for i in range(len(bag))
                if i == 0 or bag[i] != bag[i - 1]
            ]
            if not bag and op == "inp":
                return [(bag, None)]
            return outcomes
        if op in ("rdp", "rd"):
            if not bag:
                return [(bag, None)] if op == "rdp" else []
            return [(bag, t) for t in dict.fromkeys(bag)]
        raise ValueError(f"tuple-space model cannot apply {op!r}")


class LedgerModel(SequentialModel):
    """The idempotent transfer ledger (conservation + txid dedup).

    State is ``(sorted balance items, frozenset of applied txids)``.
    """

    def __init__(self, accounts: Dict[str, int]):
        self._initial = (tuple(sorted(accounts.items())), frozenset())

    def initial(self) -> Any:
        return self._initial

    def apply(self, state: Any, op: str, args: Tuple[Any, ...]) -> Iterable[Tuple[Any, Any]]:
        balances_items, applied = state
        if op == "ping":
            return [(state, "pong")]
        balances = dict(balances_items)
        if op == "balance":
            return [(state, balances[args[0]])]
        if op == "transfer":
            txid, src, dst, amount = args
            if txid in applied:
                return [(state, True)]
            balances[src] -= amount
            balances[dst] += amount
            return [
                ((tuple(sorted(balances.items())), applied | {txid}), True)
            ]
        raise ValueError(f"ledger model cannot apply {op!r}")


def model_for(kind: str, accounts: Mapping[str, int]) -> SequentialModel:
    """The sequential model of one history object, by its kind: ``"so"``
    (a shared-object key), ``"ts"`` (a tuple kind) or ``"ledger"`` (the
    transfer ledger opened with ``accounts``)."""
    if kind == "so":
        return RegisterModel()
    if kind == "ts":
        return TupleSpaceModel()
    if kind == "ledger" and accounts:
        return LedgerModel(dict(accounts))
    raise ConfigurationError(
        f"no sequential model for a {kind!r} object (a ledger needs its "
        f"initial accounts; got {dict(accounts)!r})"
    )
