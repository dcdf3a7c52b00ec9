"""Socket-free tests of the route table (``repro.service.routes``).

``Routes.handle`` is called directly with hand-built requests against a
scripted backend, so the whole status table — every rejection reason,
every exception a submit can raise, 404/405, the body rules — is pinned
without a server.  tests/http_suite.py runs the same dialect end to end
over both backends.
"""

from __future__ import annotations

import concurrent.futures
import json
from dataclasses import replace

import pytest

from repro.model.cluster import ClusterCapacity
from repro.obs import Observability
from repro.service import (
    Request,
    Routes,
    SchedulerService,
    ServiceRoutes,
    ServiceSaturatedError,
    SubmitResult,
)
from repro.service.routes import MAX_BODY_BYTES, reply
from repro.workloads.traces import job_to_dict
from tests.conftest import adhoc_job

JOB = json.dumps(job_to_dict(adhoc_job("a", arrival=0))).encode()


class Backend:
    """Scripted ``submit_*``: returns, or raises, what the test set."""

    def __init__(self):
        self.obs = Observability()
        self.answer = SubmitResult(True, "adhoc", "a", "queued")
        self.calls: list[tuple] = []

    def submit(self, entity, *, idempotency_key=None, request_id=None):
        self.calls.append((entity.job_id, idempotency_key, request_id))
        if isinstance(self.answer, Exception):
            raise self.answer
        return replace(self.answer, request_id=self.answer.request_id or request_id)


class StubRoutes(Routes):
    def __init__(self, backend: Backend):
        table = {
            ("GET", "/nan"): lambda _: reply(200, {"x": float("nan")}),
            ("GET", "/echo"): lambda request: reply(200, request.query),
        }
        super().__init__(backend.obs, backend.submit, backend.submit, table)

    def metrics_snapshot(self) -> dict:
        return {"stub": 1}


@pytest.fixture
def backend() -> Backend:
    return Backend()


@pytest.fixture
def routes(backend) -> StubRoutes:
    return StubRoutes(backend)


def request(method, target, body=b"", **headers) -> Request:
    headers = {name.replace("_", "-"): value for name, value in headers.items()}
    if body:
        headers.setdefault("content-length", str(len(body)))
    made = Request(method, target, headers)
    made.body = body[: made.length]
    return made


def body_of(response) -> dict:
    return json.loads(response.body)


class TestStatusTable:
    @pytest.mark.parametrize(
        "accepted, reason, status, retry_after",
        [
            (True, "queued", 200, False),
            (False, "infeasible", 409, False),
            (False, "invalid", 400, False),
            (False, "queue_full", 429, True),
            (False, "draining", 503, False),
            (False, "unavailable", 503, True),
            (False, "stale_epoch", 409, False),
            (False, "something-new", 400, False),
        ],
    )
    def test_decision_to_status(
        self, routes, backend, accepted, reason, status, retry_after
    ):
        backend.answer = SubmitResult(accepted, "adhoc", "a", reason)
        response = routes.handle(request("POST", "/jobs", JOB))
        assert response.status == status
        assert body_of(response)["reason"] == reason
        assert ("Retry-After" in response.headers) == retry_after
        assert response.headers["X-Request-Id"] == body_of(response)["request_id"]
        assert not response.close

    @pytest.mark.parametrize(
        "error, status",
        [
            (ServiceSaturatedError("full", retry_after_s=2.3), 503),
            (TimeoutError(), 504),
            (concurrent.futures.TimeoutError(), 504),
            (RuntimeError("service is stopped"), 503),
        ],
    )
    def test_exception_to_status(self, routes, backend, error, status):
        backend.answer = error
        response = routes.handle(
            request("POST", "/jobs", JOB, x_request_id="rid-1")
        )
        assert response.status == status and "error" in body_of(response)
        assert response.headers["X-Request-Id"] == "rid-1"
        if isinstance(error, ServiceSaturatedError):
            assert response.headers["Retry-After"] == "3"  # ceil, >= 1
            assert body_of(response)["retry_after_s"] == 2.3

    def test_unexpected_exception_is_not_swallowed(self, routes, backend):
        backend.answer = KeyError("bug")
        with pytest.raises(KeyError):
            routes.handle(request("POST", "/jobs", JOB))
        assert backend.obs.registry.snapshot()["http.requests"]["value"] == 1.0


class TestSubmissionHalves:
    def test_headers_reach_the_backend_as_keywords(self, routes, backend):
        routes.handle(
            request(
                "POST", "/jobs/", JOB, x_request_id="rid-7", idempotency_key="k1"
            )
        )
        routes.handle(request("POST", "/workflows", b'{"nope": 1}'))
        assert backend.calls == [("a", "k1", "rid-7")]  # the malformed one never ran

    @pytest.mark.parametrize("supplied", ["", "bad id with spaces!", "x" * 129])
    def test_request_id_minted_unless_well_formed(self, routes, backend, supplied):
        response = routes.handle(
            request("POST", "/jobs", JOB, x_request_id=supplied, idempotency_key="")
        )
        ((_, key, request_id),) = backend.calls
        assert key is None
        assert len(request_id) == 32 and request_id != supplied
        assert response.headers["X-Request-Id"] == request_id

    def test_replay_answers_under_the_original_id(self, routes, backend):
        backend.answer = replace(backend.answer, request_id="original")
        response = routes.handle(
            request("POST", "/jobs", JOB, x_request_id="second")
        )
        assert response.headers["X-Request-Id"] == "original"

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"", "missing or oversized request body"),
            (b"not json", "not valid JSON"),
            (b"\xff\xfe", "not valid JSON"),
            (b"[1, 2]", "must be a JSON object"),
            (b'{"nope": 1}', "malformed submission"),
        ],
    )
    def test_bad_bodies_400_with_the_request_id(self, routes, backend, body, message):
        response = routes.handle(
            request("POST", "/jobs", body, x_request_id="rid-9")
        )
        assert response.status == 400
        assert message in body_of(response)["error"]
        assert response.headers["X-Request-Id"] == "rid-9"
        assert backend.calls == []


class TestBodyLimit:
    @pytest.mark.parametrize(
        "declared, status",
        [(str(MAX_BODY_BYTES + 1), 413), ("-1", 400), ("ten", 400)],
    )
    def test_unreadable_body_is_refused_and_closed(
        self, routes, backend, declared, status
    ):
        for method, path in (("POST", "/jobs"), ("GET", "/echo"), ("PUT", "/nope")):
            made = request(method, path, content_length=declared)
            assert made.length == 0  # the transport reads nothing
            response = routes.handle(made)
            assert (response.status, response.close) == (status, True)
            assert b"Connection: close" in response.encode(response.close)
        assert backend.calls == []

    def test_the_limit_itself_is_readable(self):
        made = request("POST", "/jobs", content_length=str(MAX_BODY_BYTES))
        assert made.refused is None and made.length == MAX_BODY_BYTES


class TestLookup:
    def test_404_and_405(self, routes):
        response = routes.handle(request("GET", "/nope"))
        assert response.status == 404
        assert body_of(response)["error"] == "no such resource: /nope"
        for method, path, allow in (
            ("POST", "/echo", "GET"),
            ("GET", "/workflows", "POST"),
            ("PATCH", "/nope", "GET, POST"),
        ):
            response = routes.handle(request(method, path))
            assert response.status == 405 and response.headers["Allow"] == allow

    def test_path_and_query_normalised(self, routes):
        response = routes.handle(request("GET", "/echo/?a=1&a=2&b=x"))
        assert body_of(response) == {"a": ["1", "2"], "b": ["x"]}

    def test_metrics_formats(self, routes):
        assert body_of(routes.handle(request("GET", "/metrics"))) == {"stub": 1}
        response = routes.handle(request("GET", "/metrics?format=prometheus"))
        assert response.content_type.startswith("text/plain; version=0.0.4")
        assert b"repro_http_requests_total 1" in response.body

    def test_every_answer_is_counted_once(self, routes, backend):
        for made in (
            request("GET", "/nope"),
            request("PUT", "/echo"),
            request("POST", "/jobs", JOB),
            request("POST", "/jobs", b"not json"),
            request("POST", "/jobs", content_length=str(MAX_BODY_BYTES + 1)),
        ):
            routes.handle(made)
        snapshot = backend.obs.registry.snapshot()
        assert snapshot["http.requests"]["value"] == 5.0
        assert snapshot["http.request.seconds"]["count"] == 5.0

    def test_json_is_strict(self, routes):
        with pytest.raises(ValueError):
            routes.handle(request("GET", "/nan"))

    def test_encode(self):
        response = reply(429, {"a": 1}, {"Retry-After": "1"})
        assert response.encode(False) == (
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n"
            b'Content-Length: 8\r\nRetry-After: 1\r\n\r\n{"a": 1}'
        )


class TestServiceRoutes:
    @pytest.fixture
    def service_routes(self):
        service = SchedulerService(ClusterCapacity.uniform(cpu=8, mem=16))
        yield ServiceRoutes(service)
        service.start()
        service.drain(timeout=60)

    def test_not_ready_until_started(self, service_routes):
        response = service_routes.handle(request("GET", "/readyz"))
        assert response.status == 503
        assert body_of(response) == {
            "ready": False, "running": False, "draining": False,
        }
        assert service_routes.handle(request("GET", "/healthz")).status == 200

    def test_shard_surface_errors(self, service_routes):
        service_routes.service.start()
        for made, status in (
            (request("GET", "/shard/owns"), 400),
            (request("GET", "/shard/owns?workflow=w"), 200),
            (request("POST", "/shard/confirm", b"{}"), 400),
            (request("POST", "/shard/confirm", b'{"workflow_id": "w"}'), 200),
            (request("POST", "/shard/migrate-out", b'{"workflow_id": "w"}'), 409),
            (request("POST", "/shard/restore", b'{"workflow_id": "w"}'), 409),
            (request("POST", "/shard/migrate-in", b""), 400),
            (request("GET", "/shard/migrate-in"), 405),
        ):
            assert service_routes.handle(made).status == status, made.path
