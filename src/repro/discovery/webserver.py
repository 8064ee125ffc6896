"""An embedded web server over the middleware transport.

Section 2 of the paper: "the use of embedded web servers on small hardware
devices may allow access to the web's basic functionality — enabling client
programs and browsers to fetch web pages and display them. Hyperlinks can
link other local or remote files to that site ... One challenge is to build
a compact yet functional web server for use in embedded systems."

This is that server, scaled to the reproduction: HTTP/1.0 request/response
semantics carried over any :class:`~repro.transport.base.Transport` (one
datagram per request, one per response — the natural mapping for an
embedded device). It serves:

* application routes registered with :meth:`EmbeddedWebServer.route`
  (static text/markup or handler functions),
* a built-in ``/services`` index: every service the node provides, as an
  SML page whose entries hyperlink to ``/services/<id>`` detail pages —
  the paper's "hyperlinks can link other local or remote files" in action.

:class:`HttpClient` is the matching fetcher.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.discovery.description import ServiceDescription
from repro.errors import InteropError
from repro.interop import sml
from repro.transport.base import Address, Transport
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

Handler = Callable[[str], Tuple[int, str, str]]  # path -> (status, type, body)
RouteTarget = Union[str, Handler]

_STATUS_TEXT = {200: "OK", 404: "Not Found", 500: "Internal Server Error"}

#: How long an :class:`HttpClient` GET waits for its response.
REQUEST_TIMEOUT_S = 2.0


def _render_response(status: int, content_type: str, body: str,
                     request_id: str) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body.encode('utf-8'))}\r\n"
        f"X-Request-Id: {request_id}\r\n"
        "\r\n"
    )
    return head.encode("utf-8") + body.encode("utf-8")


def _parse_request(raw: bytes) -> Tuple[str, str, Dict[str, str]]:
    """Returns (method, path, headers); raises InteropError on junk."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InteropError(f"request is not UTF-8: {exc}") from exc
    head, _sep, _body = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise InteropError(f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return method, path, headers


def _parse_response(raw: bytes) -> Tuple[int, Dict[str, str], str]:
    text = raw.decode("utf-8")
    head, _sep, body = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2:
        raise InteropError(f"malformed status line {lines[0]!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers, body


class EmbeddedWebServer:
    """Serves HTTP over one transport endpoint."""

    def __init__(self, transport: Transport, node_name: Optional[str] = None):
        self.transport = transport
        self.node_name = node_name or transport.local_address.node
        self._routes: Dict[str, Tuple[str, RouteTarget]] = {}
        self._services: Dict[str, ServiceDescription] = {}
        self.errors = 0
        transport.set_receiver(self._on_request)
        self.route("/", "text/html", self._index_page)

    # --------------------------------------------------------------- routing

    def route(self, path: str, content_type: str, target: RouteTarget) -> None:
        """Register a page: static text or ``handler(path)``."""
        if not path.startswith("/"):
            raise InteropError(f"route path must start with '/', got {path!r}")
        self._routes[path] = (content_type, target)

    def publish_service(self, description: ServiceDescription) -> None:
        """Expose a service description under /services/<id>."""
        self._services[description.service_id] = description

    # ----------------------------------------------------------- built-ins

    def _index_page(self, _path: str) -> Tuple[int, str, str]:
        links = "".join(
            f'<li><a href="{path}">{path}</a></li>'
            for path in sorted(self._routes)
        )
        body = (
            f"<html><head><title>{self.node_name}</title></head><body>"
            f"<h1>{self.node_name}</h1>"
            f"<ul>{links}<li><a href=\"/services\">/services</a></li></ul>"
            "</body></html>"
        )
        return 200, "text/html", body

    def _services_index(self) -> Tuple[int, str, str]:
        root = sml.element("services", node=self.node_name)
        for service_id in sorted(self._services):
            root.add("service", id=service_id, href=f"/services/{service_id}")
        return 200, "application/sml", sml.serialize(root, indent="  ")

    def _service_detail(self, service_id: str) -> Tuple[int, str, str]:
        description = self._services.get(service_id)
        if description is None:
            return 404, "text/plain", f"no such service {service_id!r}"
        return 200, "application/sml", description.markup()

    # -------------------------------------------------------------- serving

    def _handle(self, method: str, path: str) -> Tuple[int, str, str]:
        if method != "GET":
            return 500, "text/plain", f"method {method!r} not supported"
        if path == "/services":
            return self._services_index()
        if path.startswith("/services/"):
            return self._service_detail(path[len("/services/"):])
        entry = self._routes.get(path)
        if entry is None:
            return 404, "text/plain", f"no route for {path!r}"
        content_type, target = entry
        if callable(target):
            return target(path)
        return 200, content_type, target

    def _on_request(self, source: Address, raw: bytes) -> None:
        try:
            method, path, headers = _parse_request(raw)
        except InteropError:
            self.errors += 1
            return
        request_id = headers.get("x-request-id", "")
        try:
            status, content_type, body = self._handle(method, path)
        except Exception as exc:  # noqa: BLE001 - 500 instead of crash
            self.errors += 1
            status, content_type, body = 500, "text/plain", repr(exc)
        self.transport.send(
            source, _render_response(status, content_type, body, request_id)
        )


class HttpResponse:
    """What :meth:`HttpClient.get` fulfills with."""

    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body

    @property
    def ok(self) -> bool:
        return self.status == 200

    def sml(self) -> sml.SmlElement:
        """Parse an SML body (service pages)."""
        return sml.parse(self.body)


class HttpClient:
    """Fetches pages from embedded web servers over the transport."""

    def __init__(self, transport: Transport):
        self.transport = transport
        self._rids = IdGenerator(f"http:{transport.local_address}")
        self._pending: Dict[str, Promise] = {}
        transport.set_receiver(self._on_response)

    def get(self, server: Address, path: str) -> Promise:
        """GET a path; fulfills with :class:`HttpResponse`."""
        request_id = self._rids.next()
        promise: Promise = Promise()
        self._pending[request_id] = promise
        request = (
            f"GET {path} HTTP/1.0\r\n"
            f"Host: {server.node}\r\n"
            f"X-Request-Id: {request_id}\r\n"
            "\r\n"
        )
        self.transport.send(server, request.encode("utf-8"))
        self.transport.scheduler.schedule(
            REQUEST_TIMEOUT_S, self._timeout, request_id
        )
        return promise

    def _timeout(self, request_id: str) -> None:
        promise = self._pending.pop(request_id, None)
        if promise is not None:
            promise.reject(InteropError(f"HTTP request {request_id} timed out"))

    def _on_response(self, source: Address, raw: bytes) -> None:
        try:
            status, headers, body = _parse_response(raw)
        except (InteropError, ValueError, UnicodeDecodeError):
            return
        promise = self._pending.pop(headers.get("x-request-id", ""), None)
        if promise is not None:
            promise.fulfill(HttpResponse(status, body))
