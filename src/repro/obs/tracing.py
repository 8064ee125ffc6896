"""Causal tracing over simulated time.

A :class:`Span` is a named interval of sim time with labels and a parent;
spans with the same ``trace_id`` form one tree per root operation. The
module-level :data:`TRACER` singleton is what the middleware instruments
against — components do::

    from repro.obs.tracing import TRACER
    ...
    if TRACER.enabled:
        with TRACER.span("transport.send", node=..., peer=...):
            self._send(destination, payload)
    else:
        self._send(destination, payload)

Design points:

* **Off by default, near-zero disabled cost.** ``TRACER.enabled`` is a
  plain attribute; the disabled branch does no allocation. Call sites that
  cannot use ``with`` get :data:`NOOP_SPAN`, whose methods all no-op.
* **Deterministic ids.** :meth:`Tracer.enable` derives the id stream from
  ``repro.util.rng.split_rng(seed, "obs.span-ids")`` — never ``uuid4`` or
  module-level ``random`` — so a seeded run exports a byte-identical trace.
* **Well-nested by construction.** Closing a span extends every finished
  ancestor's end to cover it, so a parent's sim-time interval is always the
  closure of its children's even for asynchronous operations (an RPC span
  closed when the reply arrives, a deliver span on another node). Sim time
  is monotone, so a child can never *start* before its parent.
* **A span is its own context.** What a packet, an envelope or a timer
  carries is the span itself, and its ids stay ints until export;
  docs/ARCHITECTURE.md, "obs", is the one description of the context
  model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.util.rng import split_rng


class _NoopSpan:
    """Absorbs the full Span API without recording anything."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_label(self, **labels: Any) -> None:
        pass

    def finish(self, end_time: Optional[float] = None) -> None:
        pass


#: Shared disabled-tracer span; all operations on it are no-ops.
NOOP_SPAN = _NoopSpan()


class Span:
    """One named sim-time interval in a trace tree; ids are 64-bit ints."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent",
                 "start", "end", "labels", "_stacked")

    def __init__(self, tracer: "Tracer", name: str, trace_id: int,
                 span_id: int, parent: Optional["Span"], start: float,
                 labels: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        self.labels = labels
        self._stacked = False

    def set_label(self, **labels: Any) -> None:
        self.labels.update(labels)

    def finish(self, end_time: Optional[float] = None) -> None:
        """Close the span (idempotent); extends finished ancestors to cover it."""
        self.tracer._finish(self, end_time)

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self)
        self._stacked = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._stacked:
            stack = self.tracer._stack
            if stack and stack[-1] is self:
                stack.pop()
            elif self in stack:  # defensive: out-of-order exit
                stack.remove(self)
            self._stacked = False
        if exc_type is not None:
            self.labels.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parent = None if self.parent is None else self.parent.span_id
        return (f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
                f"parent={parent}, [{self.start}, {self.end}])")


class _Activation:
    """Re-enters an open asynchronous span as the current ambient parent."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        elif self._span in stack:
            stack.remove(self._span)
        return False


class Tracer:
    """Collects spans; disabled (and free) until :meth:`enable` is called."""

    def __init__(self) -> None:
        self.enabled = False
        self.seed = 0
        self._clock: Optional[Any] = None
        self._rng = split_rng(0, "obs.span-ids")
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------- lifecycle

    def enable(self, seed: int = 0, clock: Optional[Any] = None) -> "Tracer":
        """Start recording. ``clock`` supplies sim time (``.now()``);
        span/trace ids derive deterministically from ``seed``."""
        self.seed = seed
        self._rng = split_rng(seed, "obs.span-ids")
        self._clock = clock
        self.spans = []
        self._stack = []
        self.enabled = True
        return self

    def disable(self) -> None:
        """Stop recording; collected spans stay readable until re-enable."""
        self.enabled = False
        self._stack = []

    def reset(self) -> None:
        """Drop all collected spans and restart the id stream from the seed."""
        self._rng = split_rng(self.seed, "obs.span-ids")
        self.spans = []
        self._stack = []

    def now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    # --------------------------------------------------------------- context

    def current_context(self) -> Optional[Span]:
        """The ambient span, for an envelope, a timer or a packet to carry."""
        stack = self._stack
        return stack[-1] if stack else None

    def activate(self, span: Union[Span, _NoopSpan, None]):
        """Context manager making an open async ``span`` the ambient parent."""
        if not self.enabled or not isinstance(span, Span):
            return NOOP_SPAN
        return _Activation(self, span)

    # --------------------------------------------------------------- spans

    def span(self, name: str, parent: Optional[Span] = None,
             **labels: Any) -> Union[Span, _NoopSpan]:
        """Open a span.

        Use as a context manager for synchronous work (entering pushes it on
        the ambient stack); or keep the returned span and :meth:`Span.finish`
        it later for asynchronous operations. ``parent`` overrides the
        ambient stack — pass a carried span to continue its trace across a
        hop. A root draws its trace id, then its span id.
        """
        if not self.enabled:
            return NOOP_SPAN
        if parent is None and self._stack:
            parent = self._stack[-1]
        draw = self._rng.getrandbits
        trace_id = draw(64) if parent is None else parent.trace_id
        span = Span(self, name, trace_id, draw(64), parent, self.now(), labels)
        self.spans.append(span)
        return span

    def instant(self, name: str, parent: Optional[Span] = None,
                **labels: Any) -> None:
        """Record a zero-duration event (drops, give-ups, state marks)."""
        if not self.enabled:
            return
        span = self.span(name, parent=parent, **labels)
        assert isinstance(span, Span)
        self._finish(span, span.start)

    def _finish(self, span: Span, end_time: Optional[float]) -> None:
        if span.end is not None:
            return
        end = self.now() if end_time is None else end_time
        if end < span.start:
            end = span.start
        span.end = end
        # Well-nestedness: a finished ancestor's interval must contain this
        # child's. (An ancestor still open will close later, at a sim time
        # >= `end`, because sim time is monotone.)
        parent = span.parent
        while (parent is not None and parent.end is not None
               and parent.end < end):
            parent.end = end
            parent = parent.parent

    def finish_all(self) -> None:
        """Close every still-open span at the current time (children first,
        so ancestor extension sees final child intervals)."""
        for span in reversed(self.spans):
            if span.end is None:
                self._finish(span, None)

    # ------------------------------------------------------------ inspection

#: The process-wide tracer every instrumentation site checks.
TRACER = Tracer()
