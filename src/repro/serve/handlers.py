"""HTTP request handling for the evaluation service and the front router.

Two handlers share one JSON plumbing base (:class:`_JsonHandler`):

:class:`ServeHandler` — one connection of a *replica*
(:class:`~repro.serve.server.EvalServer`'s ThreadingHTTPServer).  Routes:

* ``POST /v1/evaluate`` — admit one wire request, block until the worker
  pool resolves it, answer ``200 {"result": ...}`` (arrays as base64
  little-endian bytes, see :mod:`repro.serve.codec`).  Failures answer the
  typed error payloads of :func:`repro.serve.codec.error_payload`; overload
  answers ``429`` with a ``Retry-After`` header (the adaptive admission
  controller's measured-drain estimate) instead of queuing without bound.
* ``GET /v1/models`` — the hosted models/datasets/backends.
* ``GET /healthz`` — liveness plus queue occupancy.
* ``GET /metrics`` — request counters (with the conservation invariants),
  latency percentiles, session/coalescing stats, result-store hits, and the
  exportable ``drain`` snapshot the front tier aggregates.

:class:`FrontHandler` — one connection of the *front router*
(:class:`~repro.serve.front.FrontServer`).  Routes:

* ``POST /v1/evaluate`` — fleet admission check, then consistent-routing
  proxy to the model's replica (with deterministic failover).  The request
  bytes are forwarded as read and the replica's answer is written back as
  the bytes it sent, unparsed, so responses stay bit-identical.
* ``GET /v1/models`` — the fleet-wide model/dataset union.
* ``GET /v1/fleet`` — ring assignments, per-replica health, ejection
  counters: the sharding introspection surface.
* ``GET /healthz`` / ``GET /metrics`` — front liveness and the aggregated
  fleet view (counters summed, p95 merged from per-replica windows).

Everything is JSON; every response carries an exact ``Content-Length``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import TYPE_CHECKING, Dict, Optional, cast

from repro.serve.admission import QueueFullError, ServiceClosedError
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.serve.front import FrontService
    from repro.serve.server import EvalService
from repro.serve.codec import (
    CodecError,
    UnknownDatasetError,
    UnknownModelError,
    encode_result,
    error_payload,
    parse_body,
)

#: Largest accepted request body; a bounded queue deserves a bounded parser.
MAX_BODY_BYTES = 1 << 20

#: Seconds one socket read or write of a connection may block.  A client
#: that stalls mid-request (or idles on a kept-alive connection) is dropped
#: after this instead of holding a server thread forever; the wait for an
#: admitted job's result is not a socket operation and is bounded by the
#: service's own ``request_timeout``.
READ_TIMEOUT_S = 30.0

_LOG = get_logger(__name__)


class _JsonHandler(BaseHTTPRequestHandler):
    """Shared JSON plumbing: body reading, typed payloads, HTTP accounting.

    Subclasses route requests onto the service object their server
    carries; the service only needs a ``record_http(route, status)`` hook
    for the ``/metrics`` request table.
    """

    server_version = "repro-serve/1.4"

    def setup(self) -> None:
        # Read at connection time (not class creation) so the constant
        # stays patchable.  The stdlib handler answers a socket timeout by
        # closing the connection, which ends this handler's thread.
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (metrics cover it)."""

    def log_error(self, format: str, *args: object) -> None:  # noqa: A002 - stdlib signature
        """Connection faults (socket timeouts, malformed request lines)."""
        _LOG.warning("%s: %s", self.address_string(), format % args)

    def _record_http(self, route: str, status: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _send_json(
        self,
        route: str,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_body(route, status, json.dumps(payload).encode("utf-8"), headers)

    def _send_body(
        self,
        route: str,
        status: int,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._record_http(route, status)

    def _send_error_payload(self, route: str, error: BaseException) -> None:
        status, payload = error_payload(error)
        headers: Dict[str, str] = {}
        detail = cast(Dict[str, object], payload["error"])
        retry_after = detail.get("retry_after")
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        self._send_json(route, status, payload, headers=headers)

    def _not_found(self) -> None:
        self._send_json(
            f"{self.command} {self.path}",
            404,
            {
                "error": {
                    "type": "not-found",
                    "message": f"no route {self.command} {self.path}",
                }
            },
        )

    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """The request body, or :class:`CodecError` when its length is bad."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise CodecError("Content-Length header is not an integer") from None
        if length <= 0:
            raise CodecError("request body is empty; POST a JSON object")
        if length > MAX_BODY_BYTES:
            raise CodecError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length)


class ServeHandler(_JsonHandler):
    """Routes one HTTP connection onto the owning server's EvalService."""

    @property
    def service(self) -> "EvalService":
        # The ThreadingHTTPServer subclass (_ServeHTTPServer) carries the
        # service; BaseHTTPRequestHandler types ``server`` as BaseServer.
        return cast("EvalService", getattr(self.server, "service"))

    def _record_http(self, route: str, status: int) -> None:
        self.service.record_http(route, status)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json("GET /healthz", 200, self.service.health())
        elif self.path == "/metrics":
            self._send_json("GET /metrics", 200, self.service.metrics())
        elif self.path == "/v1/models":
            self._send_json("GET /v1/models", 200, self.service.models())
        else:
            self._not_found()

    def do_POST(self) -> None:
        if self.path != "/v1/evaluate":
            self._not_found()
            return
        route = "POST /v1/evaluate"
        try:
            job = self.service.enqueue(parse_body(self._read_body()))
        except (
            QueueFullError,  # 429, Retry-After mirrored from the payload
            ServiceClosedError,  # 503
            CodecError,  # 400
            UnknownModelError,  # 404
            UnknownDatasetError,  # 404
        ) as error:
            self._send_error_payload(route, error)
            return

        if not job.done.wait(timeout=self.service.config.request_timeout):
            self._send_json(
                route,
                504,
                {
                    "error": {
                        "type": "timeout",
                        "message": (
                            "request did not complete within "
                            f"{self.service.config.request_timeout:.0f}s; it "
                            "may still finish server-side"
                        ),
                    }
                },
            )
            return
        if job.error is not None:
            self._send_error_payload(route, job.error)
            return
        self._send_json(route, 200, {"result": encode_result(job.result)})


class FrontHandler(_JsonHandler):
    """Routes one HTTP connection onto the owning server's FrontService."""

    @property
    def front(self) -> "FrontService":
        return cast("FrontService", getattr(self.server, "front"))

    def _record_http(self, route: str, status: int) -> None:
        self.front.record_http(route, status)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json("GET /healthz", 200, self.front.health())
        elif self.path == "/metrics":
            self._send_json("GET /metrics", 200, self.front.metrics())
        elif self.path == "/v1/models":
            self._send_json("GET /v1/models", 200, self.front.models())
        elif self.path == "/v1/fleet":
            self._send_json("GET /v1/fleet", 200, self.front.fleet())
        else:
            self._not_found()

    def do_POST(self) -> None:
        # Imported here to keep handlers import-light for the replica-only
        # path (front pulls in the poller machinery).
        from repro.serve.front import FleetUnavailableError

        if self.path != "/v1/evaluate":
            self._not_found()
            return
        route = "POST /v1/evaluate"
        try:
            status, headers, body = self.front.evaluate(self._read_body())
        except (
            QueueFullError,  # fleet-level shed: 429 before any backend socket
            ServiceClosedError,  # 503: front shutting down
            CodecError,  # 400: validated at the front, never proxied
        ) as error:
            self._send_error_payload(route, error)
            return
        except FleetUnavailableError as error:
            self._send_json(
                route,
                503,
                {"error": {"type": "no-healthy-replica", "message": str(error)}},
            )
            return
        self._send_body(route, status, body, headers=headers)
