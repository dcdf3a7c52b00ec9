"""The HTTP wire dialect, written once and transport-free.

A :class:`Routes` object turns one parsed :class:`Request` into one
:class:`Response`; it never sees a socket.  The transport
(:mod:`repro.service.http`) only moves bytes to and from these two
types, and socket-free tests call :meth:`Routes.handle` directly, so
"admitted" means the same thing however the request arrived.  This
module owns path/method lookup (404, and 405 with
``Allow``), the body limit and JSON checks, ``X-Request-Id``
accept-or-mint, ``Idempotency-Key``, the reject-reason -> status map,
``Retry-After``, strict JSON encoding and the ``http.requests`` /
``http.request.seconds`` metrics.

:class:`ServiceRoutes` binds the table to one
:class:`~repro.service.core.SchedulerService`:

====== ============ =====================================================
Method Path         Meaning
====== ============ =====================================================
POST   /workflows   submit a deadline workflow (trace wire format);
                    synchronous admission decision in the body
POST   /jobs        submit an ad-hoc job; queued or shed (backpressure)
GET    /plan        the live allocation plan (origin slot, horizon,
                    per-job granted slots)
GET    /status      service snapshot (slot, queue depth, accept counts)
GET    /metrics     full metrics-registry snapshot (counters, gauges,
                    histogram quantiles); ``?format=prometheus`` switches
                    to text exposition format 0.0.4 for scrapers
GET    /slo         SLO status: deadline error budget + burn rate, and
                    decide-latency p99 vs objective
GET    /healthz     liveness: 200 while the process serves requests
GET    /readyz      readiness: 200 only while the event loop is running
                    and admitting (503 when stopped or draining)
====== ============ =====================================================

plus the shard-to-shard surface (docs/SHARDING.md) consumed by the
:class:`repro.cluster.router.ShardRouter` and rebalancer, not by end
users: ``GET /shard/skyline`` (committed-demand saturation),
``/shard/candidates`` (migratable workflows), ``/shard/orphans``
(unsettled outbound handoffs), ``/shard/workflows`` (owned ids),
``/shard/owns?workflow=ID``, and ``POST /shard/migrate-out``,
``/shard/migrate-in``, ``/shard/restore``, ``/shard/confirm`` driving the
two-phase migration protocol.  ``repro.cluster.http.RouterRoutes`` binds
the same submission dialect to a whole fleet.

Robustness (docs/ROBUSTNESS.md): a retried ``Idempotency-Key`` whose
original submission was accepted returns the original decision;
backpressure answers carry ``Retry-After`` (``429`` when the ad-hoc queue
sheds, ``503`` when the command queue is saturated or the admission
solver is temporarily unavailable); a declared body over the limit is
answered ``413`` and the connection closed *without reading it*, so the
unread bytes can never be parsed as a second request.

Request correlation (docs/OBSERVABILITY.md): every submission is
processed under a request id — the client's ``X-Request-Id`` when
well-formed, minted otherwise — echoed as a response header and in the
body and stamped onto every trace event the submission generates.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import re
import time
from dataclasses import dataclass, field
from http.client import responses as _HTTP_REASONS
from typing import Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.obs import PROMETHEUS_CONTENT_TYPE, new_request_id, render_prometheus
from repro.service.api import ServiceSaturatedError, SubmitResult
from repro.workloads.traces import (
    job_from_dict,
    workflow_from_dict,
    workflow_to_dict,
)

__all__ = [
    "MAX_BODY_BYTES",
    "Request",
    "Response",
    "Routes",
    "ServiceRoutes",
    "json_body",
    "reply",
]

#: HTTP status for each rejection reason; accepted submissions are 200.
_REJECT_STATUS = {
    "infeasible": 409,  # admission proved a deadline shortfall
    "invalid": 400,
    "queue_full": 429,  # backpressure: retry later
    "draining": 503,
    "unavailable": 503,  # admission solver failed; transient, retry
    "stale_epoch": 409,  # handoff superseded by a newer migration epoch
}
#: Rejection reasons that are transient — the answer carries Retry-After.
_RETRYABLE_REASONS = {"queue_full", "unavailable"}
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Accepted shape of a client-supplied X-Request-Id.  Anything else is
#: replaced with a minted id (never trusted into traces verbatim).
_REQUEST_ID_OK = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

_JSON = "application/json"
_NO_BODY = "missing or oversized request body"
# concurrent.futures' timeout is the builtin only from Python 3.11 on.
_TIMEOUTS = (TimeoutError, concurrent.futures.TimeoutError)


class Request:
    """One HTTP request as a transport hands it over.

    The transport builds it from the request head (``headers``: a mapping
    with lower-case names), reads exactly :attr:`length` body bytes into
    :attr:`body`, and calls :meth:`Routes.handle`.  A declared body that
    is over the limit, or whose length is unreadable, sets
    :attr:`refused` to the status that answers it and :attr:`length` to
    0: the transport reads nothing and the answer closes the connection.
    """

    __slots__ = ("method", "path", "query", "headers", "length", "refused", "body")

    def __init__(self, method: str, target: str, headers: Mapping[str, str]):
        split = urlsplit(target)
        self.method = method
        self.path = split.path.rstrip("/") or "/"
        self.query = parse_qs(split.query) if split.query else {}
        self.headers = headers
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            length = -1
        self.refused = (
            413 if length > MAX_BODY_BYTES else 400 if length < 0 else None
        )
        self.length = 0 if self.refused else length
        self.body = b""

    def arg(self, name: str, default: str = "") -> str:
        """First value of query parameter *name*."""
        return self.query.get(name, [default])[0]


@dataclass(frozen=True)
class Response:
    """What a transport writes back; ``close`` ends the connection."""

    status: int
    body: bytes
    content_type: str = _JSON
    headers: Mapping[str, str] = field(default_factory=dict)
    close: bool = False

    def encode(self, close: bool) -> bytes:
        """The HTTP/1.1 bytes to write; *close* says the transport will
        end the connection after them (it must when :attr:`close` is set)."""
        lines = [
            f"HTTP/1.1 {self.status} {_HTTP_REASONS.get(self.status, '')}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            *(f"{name}: {value}" for name, value in self.headers.items()),
        ]
        if close:
            lines.append("Connection: close")
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + self.body


def reply(
    status: int, payload, headers: Mapping[str, str] | None = None, close: bool = False
) -> Response:
    """A JSON response.

    ``allow_nan=False`` is load-bearing: a non-finite float that slipped
    past ``json_safe`` fails loudly instead of going out as bare NaN,
    which strict parsers reject.
    """
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    return Response(status, data, _JSON, headers or {}, close)


def json_body(
    request: Request, headers: Mapping[str, str] | None = None
) -> "dict | Response":
    """The request's JSON-object body, or the 400 that answers it."""
    if not request.body:
        return reply(400, {"error": _NO_BODY}, headers)
    try:
        body = json.loads(request.body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return reply(400, {"error": "request body is not valid JSON"}, headers)
    if not isinstance(body, dict):
        return reply(400, {"error": "request body must be a JSON object"}, headers)
    return body


def _retry_after(seconds: float) -> str:
    """Retry-After header value: whole seconds, at least 1."""
    return str(max(int(math.ceil(seconds)), 1))


def _submit_status(result: SubmitResult) -> int:
    return 200 if result.accepted else _REJECT_STATUS.get(result.reason, 400)


class Routes:
    """Method/path lookup over a table of handlers, plus the submission
    dialect; subclasses bind a backend by passing its ``submit_*``
    callables and the rest of its table."""

    def __init__(
        self,
        obs,
        submit_workflow: Callable,
        submit_adhoc: Callable,
        table: Mapping[tuple[str, str], Callable[[Request], Response]],
    ):
        self.obs = obs
        self._requests = obs.windowed_counter("http.requests")
        self._seconds = obs.windowed_histogram("http.request.seconds")
        self._submissions = {
            "/workflows": (workflow_from_dict, submit_workflow),
            "/jobs": (job_from_dict, submit_adhoc),
        }
        self._table = {("GET", "/metrics"): self._metrics, **table}

    def handle(self, request: Request) -> Response:
        """Answer *request*, blocking while the backend decides; counted
        from its body being read to its response being ready to write."""
        start = time.perf_counter()
        try:
            target = self._submissions.get(request.path)
            if target is None or request.method != "POST" or request.refused:
                return self._route(request)
            return self._submit(request, *target)
        finally:
            self._requests.inc()
            self._seconds.observe(time.perf_counter() - start)

    def _route(self, request: Request) -> Response:
        if request.refused is not None:
            # Answered before a byte of the body is read, then closed.
            return reply(request.refused, {"error": _NO_BODY}, close=True)
        handler = self._table.get((request.method, request.path))
        if handler is not None:
            return handler(request)
        allowed = [m for m, path in self._table if path == request.path]
        if request.path in self._submissions:
            allowed.append("POST")
        if allowed or request.method not in ("GET", "POST"):
            return reply(
                405,
                {"error": f"method {request.method} not allowed"},
                {"Allow": ", ".join(sorted(allowed) or ["GET", "POST"])},
            )
        return reply(404, {"error": f"no such resource: {request.path}"})

    def _metrics(self, request: Request) -> Response:
        if request.arg("format") == "prometheus":
            text = render_prometheus(self.obs.registry)
            return Response(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        return reply(200, self.metrics_snapshot())

    def metrics_snapshot(self) -> dict:
        """The JSON body of ``GET /metrics``."""
        raise NotImplementedError

    def _submit(self, request: Request, parse: Callable, submit: Callable) -> Response:
        """A ``POST /workflows`` or ``POST /jobs``: parse the entity, hand
        it to the backend, and map the decision — or the exception the
        backend's submit raised — to status + headers + body."""
        request_id = request.headers.get("x-request-id", "").strip()
        if not _REQUEST_ID_OK.match(request_id):
            request_id = new_request_id()
        id_header = {"X-Request-Id": request_id}
        body = json_body(request, id_header)
        if isinstance(body, Response):
            return body
        try:
            entity = parse(body)
        except (KeyError, TypeError, ValueError) as error:
            return reply(
                400, {"error": f"malformed submission: {error}"}, id_header
            )
        try:
            result = submit(
                entity,
                idempotency_key=request.headers.get("idempotency-key") or None,
                request_id=request_id,
            )
        except ServiceSaturatedError as error:
            # Control-path backpressure: the command queue is full.  Tell
            # the client when to come back instead of queueing it blind.
            return reply(
                503,
                {"error": str(error), "retry_after_s": error.retry_after_s},
                {"Retry-After": _retry_after(error.retry_after_s), **id_header},
            )
        except _TIMEOUTS:
            return reply(
                504, {"error": "scheduler did not answer in time"}, id_header
            )
        except RuntimeError as error:  # service stopped
            return reply(503, {"error": str(error)}, id_header)
        # Echo the id the submission was actually processed under (an
        # idempotent replay answers with the original submission's id).
        headers = {"X-Request-Id": result.request_id or request_id}
        if not result.accepted and result.reason in _RETRYABLE_REASONS:
            headers["Retry-After"] = _retry_after(1.0)
        return reply(_submit_status(result), result.to_dict(), headers)


class ServiceRoutes(Routes):
    """The route table over one :class:`SchedulerService`.

    Handlers only enqueue commands and read snapshots — every scheduling
    decision still happens on the service's single event-loop thread.
    """

    def __init__(self, service):
        self.service = service
        shard_post = ("migrate-out", "migrate-in", "restore", "confirm")
        table = {
            ("GET", "/status"): lambda _: reply(200, service.status().to_dict()),
            ("GET", "/plan"): lambda _: reply(200, service.plan()),
            ("GET", "/slo"): lambda _: reply(200, service.slo()),
            # Liveness: answering at all is the signal.
            ("GET", "/healthz"): lambda _: reply(200, {"ok": True}),
            ("GET", "/readyz"): self._readyz,
            ("GET", "/shard/skyline"): lambda _: reply(
                200, service.skyline()
            ),
            ("GET", "/shard/candidates"): self._candidates,
            ("GET", "/shard/orphans"): lambda _: reply(
                200, {"orphans": service.orphans()}
            ),
            ("GET", "/shard/workflows"): lambda _: reply(
                200, {"workflows": sorted(service.workflow_ids())}
            ),
            ("GET", "/shard/owns"): self._owns,
            **{("POST", f"/shard/{verb}"): self._shard_post for verb in shard_post},
        }
        super().__init__(
            service.obs, service.submit_workflow, service.submit_adhoc, table
        )

    def metrics_snapshot(self) -> dict:
        return self.service.metrics()

    def _readyz(self, request: Request) -> Response:
        running, draining = self.service.alive(), self.service.draining
        ready = running and not draining
        return reply(
            200 if ready else 503,
            {"ready": ready, "running": running, "draining": draining},
        )

    def _candidates(self, request: Request) -> Response:
        try:
            max_n = int(request.arg("max", "8"))
        except ValueError:
            max_n = 8
        return reply(
            200, {"candidates": self.service.candidates(max_n)}
        )

    def _owns(self, request: Request) -> Response:
        workflow_id = request.arg("workflow")
        if not workflow_id:
            return reply(400, {"error": "missing ?workflow=<id>"})
        owns = self.service.owns(workflow_id)
        return reply(200, {"workflow_id": workflow_id, "owns": owns})

    def _shard_post(self, request: Request) -> Response:
        """Shard-to-shard migration endpoints (router/rebalancer traffic)."""
        body = json_body(request)
        if isinstance(body, Response):
            return body
        service = self.service
        try:
            if request.path == "/shard/migrate-out":
                handoff = service.migrate_out(
                    str(body["workflow_id"]),
                    dest=str(body.get("dest", "")),
                    epoch=int(body.get("epoch", 0)),
                )
                return reply(
                    200,
                    {
                        "workflow": workflow_to_dict(handoff["workflow"]),
                        "key": handoff["key"],
                        "epoch": handoff["epoch"],
                    },
                )
            if request.path == "/shard/migrate-in":
                result = service.migrate_in(
                    workflow_from_dict(body["workflow"]),
                    key=body.get("key"),
                    epoch=int(body.get("epoch", 0)),
                )
                return reply(_submit_status(result), result.to_dict())
            if request.path == "/shard/restore":
                if "workflow" in body:
                    result = service.restore(
                        workflow_from_dict(body["workflow"]), key=body.get("key")
                    )
                else:
                    result = service.restore_orphan(str(body["workflow_id"]))
                return reply(200, result.to_dict())
            return reply(
                200,
                service.confirm(
                    str(body["workflow_id"]), epoch=int(body.get("epoch", 0))
                ),
            )
        except (KeyError, TypeError) as error:
            return reply(400, {"error": f"malformed shard request: {error}"})
        except ValueError as error:
            # Unknown workflow / already started / no such orphan: the
            # coordinator treats 409 as "this move cannot happen".
            return reply(409, {"error": str(error)})
        except _TIMEOUTS:
            return reply(504, {"error": "scheduler did not answer in time"})
        except RuntimeError as error:  # service stopped
            return reply(503, {"error": str(error)})
