"""Exception hierarchy for the repro middleware.

Every error raised by this library derives from :class:`MiddlewareError`, so
applications can catch a single base class at their outermost boundary while
still distinguishing subsystem failures when they need to.
"""

from __future__ import annotations


class MiddlewareError(Exception):
    """Base class for all errors raised by the repro middleware."""


class ConfigurationError(MiddlewareError):
    """A component was constructed or wired with invalid parameters."""


class TransportError(MiddlewareError):
    """Base class for transport-layer failures."""


class AddressError(TransportError):
    """An address could not be parsed, resolved, or reached."""


class DeliveryError(TransportError):
    """A message could not be delivered (after retries, if applicable)."""


class TransportClosedError(TransportError):
    """An operation was attempted on a closed transport."""


class NamingError(MiddlewareError):
    """Base class for naming/location failures."""


class NameNotFoundError(NamingError):
    """A logical name has no binding in the location service."""


class DiscoveryError(MiddlewareError):
    """Base class for service-discovery failures."""


class ServiceNotFoundError(DiscoveryError):
    """No registered service matched the query."""


class TransactionError(MiddlewareError):
    """Base class for transaction failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (by the application or the middleware)."""


class RpcError(TransactionError):
    """Base class for RPC failures."""


class RpcTimeoutError(RpcError):
    """An RPC did not complete within its deadline."""


class RemoteError(RpcError):
    """The remote handler raised an exception.

    The error string is the remote exception's type name and message,
    ``"<type>: <message>"``.
    """

    def __init__(self, remote_type: str, message: str):
        super().__init__(f"{remote_type}: {message}")


class SchedulingError(MiddlewareError):
    """Base class for scheduling failures."""


class AdmissionRefused(SchedulingError):
    """Admission control said "no" (task scheduler, bandwidth reservation,
    or the request-edge admission controller).

    ``retry_after_s`` (when not ``None``) is the controller's pacing hint:
    the earliest time a retry of the same request could be admitted.
    """

    def __init__(self, message: str, retry_after_s: "float | None" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RecoveryError(MiddlewareError):
    """Base class for recovery-subsystem failures."""


class LogCorruptionError(RecoveryError):
    """The write-ahead log failed integrity checks during recovery."""


class InteropError(MiddlewareError):
    """Base class for interoperability failures."""


class MarkupError(InteropError):
    """SML markup could not be parsed."""


class CodecError(InteropError):
    """A payload could not be encoded or decoded."""


class SchemaError(InteropError):
    """A message did not validate against its interface schema."""


class SimulationError(MiddlewareError):
    """Base class for network-simulator failures."""
