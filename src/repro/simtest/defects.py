"""Deliberate defects in deployed code, each with the judge that must catch it.

A row names a target function (``module:qualname``), one text patch inside
it (the old text occurs exactly once in the target's source), its judge and
a description. A *plant*'s judge is the simtest oracle whose divergence must
come first (``simtest run --plant``, E14). A *mutant*'s judge is the pytest
node id of the Hypothesis property (for the engine's LRU bound, which no
property reaches, a unit test) that must fail under the ``ci`` profile
(``python -m tests.mutants``, CI's "Mutants" step). A row that survives its
judge is a finding about the judge; the defect is never softened.

:func:`applied` compiles the patched source at the target's own file and
line and swaps it in as the function's ``__code__`` for one block. Every
binding of the target shares that one function object (a ``from ... import``
copy, a ``partialmethod``, a bound method), so the swap reaches them all.
"""

from __future__ import annotations

import importlib
import inspect
import textwrap
from contextlib import contextmanager
from types import CodeType, FunctionType
from typing import Iterator

SATISFIES = ("tests/test_feasibility_property.py::"
             "TestSatisfiesMatchesReference::test_same_answer")
ENGINE_ROUNDS = ("tests/test_feasibility_property.py::"
                 "TestEngineRoundsMatchUncached::test_rounds")
LRU_BOUND = ("tests/test_reconfig.py::"
             "TestFeasibilityCacheUnit::test_lru_bounds_entries")
RECEPTION = ("tests/test_reception_property.py::"
             "TestDeliverMatchesReference::test_same_reception")
QUEUE = ("tests/test_simulator.py::"
         "TestQueueExactness::test_fires_as_one_heap_would")
ENGINE = "repro.core.reconfig:ReconfigEngine."
DELIVER = "repro.netsim.medium:WirelessMedium._deliver"


class Defect:
    """One row: ``old`` becomes ``new`` in ``target``, caught by ``judge``."""

    __slots__ = ("name", "target", "old", "new", "judge", "description")

    def __init__(self, name: str, target: str, old: str, new: str,
                 judge: str, description: str) -> None:
        self.name = name
        self.target = target
        self.old = old
        self.new = new
        self.judge = judge
        self.description = description


DEFECTS = {row.name: row for row in (
    Defect("broken-watermark",
           "repro.transport.reliable:_PeerReceiveState.is_duplicate",
           "seq <= self.watermark", "seq < self.watermark", "delivery",
           "reliable dedup uses < instead of <= against the watermark"),
    Defect("truncated-feasibility",
           "repro.core.feasibility:minimal_feasible_sets",
           "    return search.results(ids, max_sets)\n",
           "    found = search.results(ids, max_sets)\n"
           "    return found[:-1] if len(found) > 1 else found\n", "milan",
           "feasible-set search drops its last minimal set"),
    # Stands in for a replication plant until ``simtest failover --plant``.
    Defect("double-apply", "repro.workloads.campaign:Ledger.transfer",
           "        if txid in self.applied:\n            return True\n", "",
           "ledger", "ledger forgets txid dedup; retries double-apply"),
    Defect("ghost-withdraw",
           "repro.discovery.distributed:DistributedDiscovery.withdraw",
           "        if self._local.pop(service_id, None) is None:\n"
           "            return\n",
           "        self._withdrawn.discard(service_id)\n        return\n",
           "discovery", "discovery withdraw leaves the service advertised"),
    Defect("eager-get",
           "repro.transactions.sharedobjects:SharedObjectHost._get_must_wait",
           "return bool(self.write_through_acks and "
           "self._pending_by_key.get(key))", "return False",
           "linearizability-so",
           "shared-object host answers gets during pending invalidations"),
    # MiLAN's one-loop ``satisfies`` against the reference's generator form.
    Defect("satisfies-strict", "repro.core.feasibility:satisfies",
           "(1.0 - miss) + 1e-12 >= required",
           "(1.0 - miss) + 1e-12 > required", SATISFIES,
           "a requirement met exactly is missed"),
    Defect("satisfies-no-epsilon", "repro.core.feasibility:satisfies",
           "(1.0 - miss) + 1e-12 >= required", "(1.0 - miss) >= required",
           SATISFIES, "a requirement met up to rounding is missed"),
    Defect("satisfies-early-true", "repro.core.feasibility:satisfies",
           "            return False\n    return True\n",
           "            return False\n        return True\n    return True\n",
           SATISFIES, "the first variable met decides the group"),
    # Ranking compiled columns, and the cache's last-entry probe.
    Defect("best-skips-tie-break", "repro.core.selection:_best",
           "if values.count(best) == 1:", "if values.count(best) >= 1:",
           ENGINE_ROUNDS, "ties on the primary value skip the tie-break"),
    Defect("store-keeps-last", ENGINE + "store",
           "        self._last = entry\n", "", LRU_BOUND,
           "a stored entry leaves a stale last probe"),
    Defect("invalidate-keeps-last", ENGINE + "invalidate_sensor",
           "            if self._entries.pop(key) is self._last:\n"
           "                self._last = None\n",
           "            self._entries.pop(key)\n", ENGINE_ROUNDS,
           "an invalidated entry stays the last probe"),
    Defect("clear-keeps-last", ENGINE + "clear",
           "        self._memos.clear()\n        self._last = None\n",
           "        self._memos.clear()\n", ENGINE_ROUNDS,
           "clear() forgets every entry but the last probe"),
    # One probe per round, and the configurations an entry keeps.
    Defect("probe-ignores-node", ENGINE + "_remember",
           "(sid, sensor_signature(sensor), node_id)",
           "(sid, sensor_signature(sensor), None)", ENGINE_ROUNDS,
           "a sensor moved to another node keeps its fingerprint"),
    Defect("layout-ignores-depleted", ENGINE + "select",
           "layout = (depleted_nodes, context.sink_node_id)",
           "layout = (context.sink_node_id,)", ENGINE_ROUNDS,
           "kept configurations ignore depleted nodes"),
    # The medium's one reception loop against the per-receiver reference.
    Defect("charge-in-place-at-equal", DELIVER,
           "if remaining > rx_joules:", "if remaining >= rx_joules:",
           RECEPTION, "a charge equal to the battery leaves it alive"),
    Defect("crashed-receiver-hears", DELIVER,
           "                if receiver._crashed:\n"
           "                    dead += 1\n                    continue\n",
           "", RECEPTION, "a crashed receiver hears the frame"),
    Defect("empty-without-drain", DELIVER,
           "                    battery.drain(rx_joules)\n",
           "                    battery.remaining = 0.0\n", RECEPTION,
           "an emptied battery skips drain()"),
    Defect("one-price-per-batch", DELIVER,
           "if receiver.radio is not radio:", "if radio is None:",
           RECEPTION, "every receiver is priced by the first radio"),
    Defect("wire-priced-as-air", DELIVER,
           "radio.rx_cost(rx_bits) if on_air else 0.0",
           "radio.rx_cost(rx_bits)", RECEPTION, "a wire frame costs energy"),
    Defect("fault-size-ignored", DELIVER,
           "                    size = heard.size_bytes\n", "", RECEPTION,
           "a fault hook's resized frame is priced at the sent size"),
    Defect("raised-reception-uncounted", DELIVER,
           "made = receivers.index(receiver) + 1",
           "made = receivers.index(receiver)", RECEPTION,
           "a reception whose handler raised is not counted"),
    Defect("handler-hears-sent-frame", DELIVER,
           "handler(receiver, heard)", "handler(receiver, packet)",
           RECEPTION, "the handler hears the sent frame, not the faulted one"),
    # The heap and the sorted run against one heap of every entry.
    Defect("loop-compares-no-heads", "repro.netsim.simulator:Simulator._loop",
           "if run and not (heap and heap[0] < run[0]):", "if run:", QUEUE,
           "the sorted run fires before a smaller heap head"),
    Defect("run-takes-out-of-order",
           "repro.netsim.simulator:Simulator.schedule_at",
           "if self._tie_breaker is not None or run and when < run[-1][0]:",
           "if self._tie_breaker is not None:", QUEUE,
           "an event earlier than the run's tail joins the run"),
    Defect("sweep-counts-heap-only",
           "repro.netsim.simulator:EventHandle.cancel",
           "dead = len(heap) + len(run) - sim._live",
           "dead = len(heap) - sim._live", QUEUE,
           "the dead-entry sweep counts the heap only"),
)}

#: The rows a simtest oracle judges (a mutant's judge is a node id).
PLANTS = sorted(name for name, row in DEFECTS.items() if "::" not in row.judge)


def target_function(target: str) -> FunctionType:
    """The function ``module:qualname`` names."""
    module, qualname = target.split(":")
    found = importlib.import_module(module)
    for part in qualname.split("."):
        found = getattr(found, part)
    return found


def patched_code(defect: Defect, function: FunctionType) -> CodeType:
    """``function``'s code with ``defect``'s patch, compiled at its own file
    and line; a patch that does not apply fails by the row's name."""
    lines, first = inspect.getsourcelines(function)
    source = "".join(lines)
    if source.count(defect.old) != 1:
        raise ValueError(f"defect {defect.name!r}: its old text occurs "
                         f"{source.count(defect.old)} times in "
                         f"{defect.target}, not once")
    patched = textwrap.dedent(source.replace(defect.old, defect.new))
    module = compile("\n" * (first - 1) + patched,
                     function.__code__.co_filename, "exec")
    return next(const for const in module.co_consts
                if isinstance(const, CodeType))


@contextmanager
def applied(name: str) -> Iterator[None]:
    """Run the block with defect ``name`` in its target; always restores."""
    if name not in DEFECTS:
        raise ValueError(f"unknown defect {name!r}; rows: {sorted(DEFECTS)}")
    defect = DEFECTS[name]
    function = target_function(defect.target)
    original = function.__code__
    function.__code__ = patched_code(defect, function)
    try:
        yield
    finally:
        function.__code__ = original
