"""Remote procedure calls.

An :class:`RpcEndpoint` both serves and calls: expose handlers with
:meth:`RpcEndpoint.expose`, invoke remote ones with :meth:`RpcEndpoint.call`
(promise-based, with timeout and optional retries) or
:meth:`RpcEndpoint.notify` (asynchronous one-way — Section 3.6 asks that
the interaction technology "provide asynchronous connections").

Optional :class:`~repro.interop.schema.InterfaceSchema` validation enforces
the markup-described contract on both parameters and results.

Protocol (codec dicts)::

    {"op": "call",   "rid": id, "method": name, "params": {...}}
    {"op": "notify",            "method": name, "params": {...}}
    {"op": "result", "rid": id, "value": ...}
    {"op": "error",  "rid": id, "type": exc type name, "msg": text}
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import AdmissionRefused, RemoteError, RpcError, RpcTimeoutError, SchemaError
from repro.interop.codec import Codec, wire_plain
from repro.interop.schema import InterfaceSchema
from repro.obs.tracing import NOOP_SPAN, TRACER
from repro.transport.base import Address, Transport
from repro.transport.endpoint import MessageEndpoint, optional
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

Handler = Callable[..., Any]


class _PendingCall:
    __slots__ = ("promise", "destination", "method", "params", "retries_left",
                 "timeout_s", "timer", "span")

    def __init__(self, promise: Promise, destination: Address, method: str,
                 params: Dict[str, Any], retries_left: int, timeout_s: float,
                 timer: Any, span: Any = NOOP_SPAN) -> None:
        self.promise = promise
        self.destination = destination
        self.method = method
        self.params = params
        self.retries_left = retries_left
        self.timeout_s = timeout_s
        self.timer = timer
        self.span = span  # open rpc.call span; closed when the call settles


class RpcEndpoint(MessageEndpoint):
    """A bidirectional RPC endpoint over one transport."""

    OPS = {
        "call": ({"method": str, "rid": optional(str),
                  "params": optional(dict)}, "_serve"),
        "notify": ({"method": str, "params": optional(dict)}, "_serve"),
        "result": ({"rid": str}, "_on_result"),
        "error": ({"rid": str, "type": optional(str), "msg": optional(str)},
                  "_on_result"),
    }

    def __init__(
        self,
        transport: Transport,
        codec: Optional[Codec] = None,
        interface: Optional[InterfaceSchema] = None,
        default_timeout_s: float = 2.0,
        admission: Optional[Any] = None,
        admission_class: str = "normal",
    ):
        super().__init__(transport, codec)
        self.interface = interface
        self.default_timeout_s = default_timeout_s
        # Optional AdmissionController consulted before each outbound call;
        # refused calls reject immediately with a retry_after_s hint instead
        # of adding load (timeouts, retransmits) to an overloaded system.
        self.admission = admission
        self.admission_class = admission_class
        self._handlers: Dict[str, Handler] = {}
        self._rids = IdGenerator(f"rpc:{transport.local_address}")
        self._pending: Dict[str, _PendingCall] = {}
        self.calls_served = 0
        self.timeouts = 0
        self.admission_rejected = 0

    # ---------------------------------------------------------------- serving

    def expose(self, method: str, handler: Handler) -> None:
        """Register a handler; it receives params as keyword arguments.

        With an interface schema attached, the method must exist in the
        schema and params/results are validated.
        """
        if self.interface is not None:
            self.interface.operation(method)  # raises if undeclared
        if method in self._handlers:
            raise RpcError(f"method {method!r} already exposed")
        self._handlers[method] = handler

    def _serve(self, source: Address, message: Dict[str, Any]) -> None:
        # A notify is served the same, never answered.
        rid = message.get("rid") if message["op"] == "call" else None
        method = message["method"]
        params = message.get("params", {})
        if TRACER.enabled:
            with TRACER.span("rpc.serve",
                             node=self.transport.local_address.node,
                             method=method, peer=source.node):
                self._serve_inner(source, rid, method, params)
        else:
            self._serve_inner(source, rid, method, params)

    def _serve_inner(self, source: Address, rid: Optional[str], method: str,
                     params: Mapping[str, Any]) -> None:
        handler = self._handlers.get(method)
        try:
            if handler is None:
                raise RpcError(f"no such method {method!r}")
            if self.interface is not None:
                self.interface.operation(method).validate_params(params)
            # Copies: by-reference delivery hands over the caller's own
            # containers, which a retry would send again (``**`` itself
            # already builds the handler a dict of its own).
            value = handler(**{name: wire_plain(item)
                               for name, item in params.items()})
            if self.interface is not None:
                self.interface.operation(method).validate_result(value)
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            if rid is not None:
                self._send(source, {"op": "error", "rid": rid,
                                    "type": type(exc).__name__, "msg": str(exc)})
            return
        self.calls_served += 1
        if rid is not None:
            self._send(source, {"op": "result", "rid": rid, "value": value})

    # ---------------------------------------------------------------- calling

    def call(
        self,
        destination: Address,
        method: str,
        params: Optional[Mapping[str, Any]] = None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        priority: Optional[str] = None,
    ) -> Promise:
        """Invoke a remote method; fulfills with the result value.

        Rejects with :class:`RpcTimeoutError` after ``retries`` re-sends all
        time out, or :class:`RemoteError` if the handler raised. With an
        admission controller attached, a call the controller refuses rejects
        *immediately* with :class:`AdmissionRefused` carrying the
        ``retry_after_s`` pacing hint — nothing reaches the wire.
        ``priority`` selects the admission class (default
        :attr:`admission_class`).
        """
        params = dict(params or {})
        if self.admission is not None:
            cls = priority if priority is not None else self.admission_class
            retry_after = self.admission.try_admit(
                cls, now=self.transport.scheduler.now()
            )
            if retry_after is not None:
                self.admission_rejected += 1
                refused: Promise = Promise()
                refused.reject(AdmissionRefused(
                    f"call {method!r} refused by admission class {cls!r}",
                    retry_after_s=retry_after,
                ))
                return refused
        if self.interface is not None:
            try:
                self.interface.operation(method).validate_params(params)
            except SchemaError as exc:
                failed: Promise = Promise()
                failed.reject(exc)
                return failed
        rid = self._rids.next()
        promise: Promise = Promise()
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        pending = _PendingCall(promise, destination, method, params, retries, timeout, None)
        if TRACER.enabled:
            pending.span = TRACER.span(
                "rpc.call", node=self.transport.local_address.node,
                method=method, peer=destination.node,
            )
        self._pending[rid] = pending
        self._transmit_call(rid, pending)
        return promise

    def notify(
        self,
        destination: Address,
        method: str,
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Asynchronous one-way invocation: no reply, no completion signal."""
        self._send(destination, {"op": "notify", "method": method,
                                 "params": dict(params or {})})

    def _transmit_call(self, rid: str, pending: _PendingCall) -> None:
        with TRACER.activate(pending.span):
            self._send(
                pending.destination,
                {"op": "call", "rid": rid, "method": pending.method,
                 "params": pending.params},
            )
        pending.timer = self.transport.scheduler.schedule(
            pending.timeout_s, self._on_call_timeout, rid
        )

    def _on_call_timeout(self, rid: str) -> None:
        pending = self._pending.get(rid)
        if pending is None:
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            self._transmit_call(rid, pending)
            return
        del self._pending[rid]
        self.timeouts += 1
        pending.span.set_label(status="timeout")
        pending.span.finish()
        pending.promise.reject(
            RpcTimeoutError(
                f"call {pending.method!r} to {pending.destination} timed out"
            )
        )

    # -------------------------------------------------------------- receiving

    def _on_result(self, source: Address, message: Dict[str, Any]) -> None:
        pending = self._pending.pop(message["rid"], None)
        if pending is None:
            return  # late reply after timeout: drop
        if pending.timer is not None:
            pending.timer.cancel()
        ok = message["op"] == "result"
        pending.span.set_label(status="ok" if ok else "error")
        pending.span.finish()
        if ok:
            # A copy: the handler may have returned its own state.
            pending.promise.fulfill(wire_plain(message.get("value")))
        else:
            pending.promise.reject(
                RemoteError(message.get("type", "Exception"), message.get("msg", ""))
            )
