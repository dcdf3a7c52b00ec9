"""The one HTTP frontend suite, run over every backend.

Nothing here is collected directly (no ``Test`` prefix).
``tests/test_service_http.py`` binds these classes to the single-service
backend by subclassing them, and to the router backend (two
``SchedulerService`` shards behind a ``ShardRouter``) by adding
:class:`Router`.  The classes that only need the submission dialect —
:class:`Dialect`, :class:`Rejections`, :class:`RequestIds`,
:class:`Idempotency`, :class:`ConnectionHandling` — run against both
backends; :class:`ServiceViews`, :class:`Lifecycle`, :class:`EndToEnd`
and :class:`ClientConnections` read single-service answers.

Each test binds an ephemeral port (port=0), drives the real socket, and
shuts down in a fixture — no fixed ports, no leaked threads.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import RouterRoutes, ShardRouter, slice_capacity
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import parse_prometheus
from repro.service import (
    HttpServiceClient,
    SchedulerService,
    ServiceConfig,
    ServiceHTTPServer,
    ServiceRoutes,
)
from repro.service.client import CircuitBreaker, ServiceUnavailableError
from repro.service.routes import MAX_BODY_BYTES
from repro.workloads.traces import (
    job_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from tests.conftest import adhoc_job, deadline_job


def chain(wid: str, n: int = 3, start: int = 0, deadline: int = 60) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid) for i in range(n)]
    edges = [(f"{wid}-j{i}", f"{wid}-j{i+1}") for i in range(n - 1)]
    return Workflow.from_jobs(wid, jobs, edges, start, deadline)


def raw_request(url, method="GET", payload=None, headers=None):
    """One request through urllib: ``(status, JSON body, headers)``."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    if data:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read() or b"{}"), error.headers


class Served:
    """A backend behind the HTTP server: ``services`` holds the one
    ``SchedulerService``, or the router's two shards' services."""

    def __init__(self, backend: str, config: ServiceConfig, start=True):
        cluster = ClusterCapacity.uniform(cpu=40, mem=80)
        if backend == "router":
            self.services = [
                SchedulerService(capacity, config, name=f"shard{i}")
                for i, capacity in enumerate(slice_capacity(cluster, 2))
            ]
            routes = RouterRoutes(ShardRouter(self.services))
        else:
            self.services = [SchedulerService(cluster, config)]
            routes = ServiceRoutes(self.services[0])
        if start:
            self.start_services()
        self.server = ServiceHTTPServer(routes).start()
        self.url = self.server.url
        self.client = HttpServiceClient(self.url, timeout=30)

    @property
    def service(self) -> SchedulerService:
        return self.services[0]

    def start_services(self) -> None:
        for service in self.services:
            service.start()

    def address(self) -> tuple[str, int]:
        host, port = self.url.removeprefix("http://").split(":")
        return host, int(port)

    def stop(self) -> list:
        """Shut the frontend down, then drain whatever still runs."""
        self.server.shutdown()
        self.client.close()
        return [s.drain(timeout=60) for s in self.services if s.alive()]

    def connections(self) -> float:
        """Connections the frontend has accepted so far."""
        return self.server.routes.obs.registry.snapshot()["http.connections"]["value"]


class Router:
    backend = "router"


class Frontend:
    """Fixture base; a binding may set ``backend``."""

    backend = "service"

    def serve(self, config: ServiceConfig, start: bool = True) -> Served:
        return Served(self.backend, config, start)

    @pytest.fixture
    def served(self):
        served = self.serve(ServiceConfig(adhoc_queue_limit=2))
        yield served
        served.stop()


class Dialect(Frontend):
    """What every client relies on, whichever backend answers."""

    def test_submit_workflow_and_job(self, served):
        result = served.client.submit_workflow(chain("w"))
        assert result.accepted and result.reason == "admitted"
        result = served.client.submit_adhoc(adhoc_job("a", arrival=0))
        assert result.accepted and result.reason == "queued"

    def test_unknown_route_404(self, served):
        status, body, _ = raw_request(served.url + "/nope")
        assert status == 404 and "error" in body

    def test_unsupported_method_405(self, served):
        for method, path, allow in (
            ("PUT", "/status", "GET"),
            ("GET", "/jobs", "POST"),
            ("DELETE", "/nope", "GET, POST"),
        ):
            status, body, headers = raw_request(served.url + path, method)
            assert (status, headers["Allow"]) == (405, allow), (method, path)
            assert "error" in body

    def test_metrics_prometheus_endpoint(self, served):
        served.client.submit_workflow(chain("w"))
        with urllib.request.urlopen(
            served.url + "/metrics?format=prometheus", timeout=30
        ) as r:
            assert r.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = r.read().decode()
        families = parse_prometheus(text)  # strict: raises on violations
        accepted = {
            "service": "repro_service_submit_workflow_accepted_total",
            "router": "repro_router_submit_workflow_total",
        }[self.backend]
        assert accepted in families
        # The shared layer times every request, so either backend's
        # registry carries a request rate and latency.
        assert families["repro_http_requests_total"]["samples"][0][2] >= 1.0
        assert "repro_http_request_seconds" in families

    def test_health_endpoints(self, served):
        status, body, _ = raw_request(served.url + "/healthz")
        assert status == 200 and body["ok"] is True
        status, body, _ = raw_request(served.url + "/readyz")
        assert status == 200 and body["ready"] is True
        assert served.client.healthy() and served.client.ready()


class ServiceViews(Frontend):
    """The single service's read endpoints."""

    def test_status_endpoint(self, served):
        served.client.submit_workflow(chain("w"))
        status = served.client.status()
        assert status.running and not status.draining
        assert status.accepted_workflows == 1
        assert status.scheduler == "FlowTime"

    def test_plan_endpoint(self, served):
        served.client.submit_workflow(chain("w"))
        served.service.drain(timeout=60)
        plan = served.client.plan()
        assert set(plan) >= {"origin_slot", "horizon", "jobs"}

    def test_metrics_endpoint(self, served):
        served.client.submit_workflow(chain("w"))
        metrics = served.client.metrics()
        assert metrics["service.submit.workflow.accepted"]["value"] == 1.0
        # The frontend observes its own request counters (the /metrics
        # request itself is counted only after its snapshot is taken —
        # the submit is visible).
        assert metrics["http.requests"]["value"] >= 1.0
        # Recorded by the service itself, enqueue to decision.
        assert metrics["service.submit.seconds"]["count"] == 1.0

    def test_metrics_json_is_strict(self, served):
        # Never-set gauges / empty histograms hold NaN internally; the
        # endpoint must serialize them as null, not bare NaN (which
        # json.loads tolerates but strict parsers reject).
        served.client.submit_workflow(chain("w"))
        with urllib.request.urlopen(served.url + "/metrics", timeout=30) as r:
            raw = r.read().decode()
        assert "NaN" not in raw
        json.loads(raw, parse_constant=lambda token: pytest.fail(
            f"non-strict JSON token {token!r} in /metrics"
        ))

    def test_slo_endpoint(self, served):
        served.client.submit_workflow(chain("w"))
        slo = served.client.slo()
        assert set(slo) == {"config", "deadline", "decide_latency", "healthy"}
        assert slo["deadline"]["objective"] == 0.99


class RouterViews(Frontend):
    """The fleet's read endpoints."""

    def test_status_and_shards(self, served):
        served.client.submit_workflow(chain("w"))
        _, status, _ = raw_request(served.url + "/status")
        assert status["running_shards"] == 2
        assert status["aggregate"]["accepted_workflows"] == 1
        _, shards, _ = raw_request(served.url + "/shards")
        assert [s["alive"] for s in shards["shards"]] == [True, True]

    def test_metrics_carry_the_frontends_request_rate(self, served):
        result = served.client.submit_workflow(chain("w"))
        metrics = served.client.metrics()
        assert metrics["aggregate"]["service.submit.workflow.accepted"] == 1.0
        assert set(metrics["shards"]) == {"shard0", "shard1"}
        assert result.shard in metrics["shards"]
        assert metrics["router"]["http.requests"]["value"] >= 1.0
        assert metrics["router"]["http.request.seconds"]["count"] >= 1.0

    def test_operator_levers_without_their_daemons_409(self, served):
        for path in ("/rebalance", "/failover"):
            status, body, _ = raw_request(served.url + path, "POST", {})
            assert status == 409 and "error" in body
        status, body, _ = raw_request(served.url + "/reconcile", "POST", {})
        assert status == 200 and body["held"] == 0


class Rejections(Frontend):
    def test_duplicate_workflow_400(self, served):
        served.client.submit_workflow(chain("w"))
        # Same id again through the raw socket: HTTP 400, body still a
        # fully-formed SubmitResult the client can parse.
        status, body, _ = raw_request(
            served.url + "/workflows", "POST", workflow_to_dict(chain("w"))
        )
        assert status == 400
        assert body["accepted"] is False and body["reason"] == "invalid"
        # The client surfaces it as a decision, not an exception.
        result = served.client.submit_workflow(chain("w"))
        assert not result.accepted and result.reason == "invalid"

    def test_queue_full_429(self):
        # Needs a paced clock: with virtual time the jobs would complete
        # between HTTP round trips and the queue would never fill.  A
        # realtime service with a long slot keeps all submissions live.
        served = self.serve(
            ServiceConfig(adhoc_queue_limit=2, realtime=True, slot_seconds=300.0)
        )
        # The router spills a shed job to its other shard before giving up.
        room = 2 * len(served.services)
        try:
            outcomes = []
            for i in range(room + 2):
                status, body, headers = raw_request(
                    served.url + "/jobs",
                    "POST",
                    job_to_dict(adhoc_job(f"a{i}", arrival=0)),
                )
                outcomes.append((status, body["reason"], headers))
            assert [o[:2] for o in outcomes].count((200, "queued")) == room
            shed = [o for o in outcomes if o[0] == 429]
            assert len(shed) == 2
            for _, reason, headers in shed:
                assert reason == "queue_full"
                assert int(headers["Retry-After"]) >= 1
        finally:
            results = served.stop()
        # Drain ignores pacing: the accepted jobs still complete.
        assert results and all(result.finished for result in results)

    def test_saturated_503_with_retry_after(self):
        # Not started: commands pile up, the limit bites synchronously.
        served = self.serve(ServiceConfig(command_queue_limit=1), start=False)
        try:
            for i, service in enumerate(served.services):
                service.submit_adhoc(adhoc_job(f"fill{i}", arrival=0), wait=False)
            status, body, headers = raw_request(
                served.url + "/jobs", "POST", job_to_dict(adhoc_job("a", arrival=0))
            )
            assert status == 503 and int(headers["Retry-After"]) >= 1
            # A service says so itself; the router reports its shard.
            assert "retry_after_s" in body or body["reason"] == "unavailable"
            assert headers["X-Request-Id"]
        finally:
            served.start_services()
            served.stop()

    def test_malformed_body_400(self, served):
        status, body, _ = raw_request(
            served.url + "/workflows", "POST", {"nope": 1}
        )
        assert status == 400 and "error" in body

    def test_non_json_body_400(self, served):
        for data in (b"not json", b"[1, 2]"):
            request = urllib.request.Request(
                served.url + "/workflows", data=data, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            with excinfo.value as error:
                assert error.code == 400


class RequestIds(Frontend):
    def test_header_echoed_and_minted(self, served):
        payload = {"workflow": "nonsense"}
        status, _, headers = raw_request(
            served.url + "/workflows", "POST", payload,
            headers={"X-Request-Id": "client-id-7"},
        )
        assert status == 400
        assert headers.get("X-Request-Id") == "client-id-7"
        # No header → the server mints one.
        status, _, headers = raw_request(
            served.url + "/workflows", "POST", payload
        )
        assert status == 400
        minted = headers.get("X-Request-Id")
        assert minted and len(minted) == 32

    def test_invalid_header_replaced_not_trusted(self, served):
        status, _, headers = raw_request(
            served.url + "/workflows", "POST", {},
            headers={"X-Request-Id": "bad id with spaces!"},
        )
        assert status == 400
        echoed = headers.get("X-Request-Id")
        assert echoed and echoed != "bad id with spaces!"

    def test_result_body_carries_request_id(self, served):
        result = served.client.submit_workflow(chain("w"), request_id="req-42")
        assert result.request_id == "req-42"
        status, body, headers = raw_request(
            served.url + "/jobs", "POST", job_to_dict(adhoc_job("a", arrival=0)),
            headers={"X-Request-Id": "req-43"},
        )
        assert status == 200
        assert body["request_id"] == headers["X-Request-Id"] == "req-43"


class Idempotency(Frontend):
    def test_replayed_key_returns_first_decision(self, served):
        first = served.client.submit_workflow(
            chain("w"), idempotency_key="key-1", request_id="original"
        )
        assert first.accepted
        replay = served.client.submit_workflow(
            chain("w"), idempotency_key="key-1", request_id="second"
        )
        assert replay.accepted
        assert replay.request_id == "original"
        accepted = sum(s.status().accepted_workflows for s in served.services)
        assert accepted == 1

    def test_distinct_keys_are_distinct_submissions(self, served):
        client = served.client
        assert client.submit_workflow(chain("w"), idempotency_key="k1").accepted
        dup = client.submit_workflow(chain("w"), idempotency_key="k2")
        assert not dup.accepted and dup.reason == "invalid"


class ConnectionHandling(Frontend):
    def test_keep_alive_serves_many_requests_per_connection(self, served):
        conn = http.client.HTTPConnection(*served.address(), timeout=30)
        try:
            for _ in range(5):
                conn.request("GET", "/status")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())  # must drain to reuse
        finally:
            conn.close()

    def test_connection_close_honoured(self, served):
        conn = http.client.HTTPConnection(*served.address(), timeout=30)
        try:
            conn.request("GET", "/status", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers.get("Connection") == "close"
            json.loads(response.read())
        finally:
            conn.close()

    def test_oversized_body_rejected(self, served):
        # A declared body over the limit is answered 413 without being
        # read, and the connection closed: whatever follows the head — here
        # a smuggled second request — must never be parsed as a request.
        with socket.create_connection(served.address(), timeout=30) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                + b"GET /status HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            received = b""
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except ConnectionResetError:
                pass  # closing on unread bytes may reset instead of FIN
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"connection: close" in head.lower()
        # Exactly one response: its JSON body is all that follows.
        assert received.count(b"HTTP/1.1 ") == 1
        assert "error" in json.loads(body)
        # The server itself is unharmed.
        assert raw_request(served.url + "/healthz")[0] == 200

    def test_truncated_body_is_not_acted_on(self, served):
        # The client declares more body than it sends, then closes its
        # side: the valid JSON that did arrive must not be submitted.
        body = json.dumps(job_to_dict(adhoc_job("a", arrival=0))).encode()
        with socket.create_connection(served.address(), timeout=30) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body) + 50}\r\n\r\n".encode()
                + body
            )
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""  # closed with no response
        assert all(service.status().n_jobs == 0 for service in served.services)

    def test_unreadable_content_length_400_and_closed(self, served):
        conn = http.client.HTTPConnection(*served.address(), timeout=30)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", "-5")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert response.headers.get("Connection") == "close"
        finally:
            conn.close()


class Lifecycle(Frontend):
    def test_shutdown_is_idempotent_and_releases_port(self):
        served = self.serve(ServiceConfig())
        _, port = served.address()
        served.server.shutdown()
        served.server.shutdown()  # second call must be a no-op
        # The port is free again: a new server can bind it.
        second = ServiceHTTPServer(ServiceRoutes(served.service), port=port).start()
        try:
            status, _, _ = raw_request(second.url + "/healthz")
            assert status == 200
        finally:
            second.shutdown()
            served.stop()


class EndToEnd(Frontend):
    def test_submit_run_drain_over_http(self, served):
        client = served.client
        assert client.submit_workflow(chain("w", deadline=80)).accepted
        assert client.submit_adhoc(adhoc_job("a", arrival=0)).accepted
        (result,) = served.stop()
        assert result.finished
        assert result.workflows["w"].met_deadline
        assert result.jobs["a"].completion_slot is not None

    def test_wire_format_round_trips_trace_entries(self, served):
        # Anything save_trace wrote can be replayed against a live server.
        wire = json.loads(json.dumps(workflow_to_dict(chain("w"))))
        result = served.client.submit_workflow(workflow_from_dict(wire))
        assert result.accepted


class ClientConnections(Frontend):
    """``HttpServiceClient`` keeps HTTP/1.1 connections: counted on the
    server, which sees one accept per connection the client opens."""

    @pytest.fixture
    def served(self):
        served = self.serve(ServiceConfig())
        yield served
        served.stop()

    def test_submissions_reuse_one_connection(self, served):
        for i in range(50):
            assert served.client.submit_adhoc(adhoc_job(f"a{i}", arrival=0)).accepted
        assert served.connections() == 1

    def test_connection_closed_while_idle_is_sent_once_more(self, served):
        breaker = CircuitBreaker(failure_threshold=1)
        client = HttpServiceClient(served.url, max_retries=0, breaker=breaker)
        first = client.submit_workflow(chain("w"), idempotency_key="key-1")
        # A restart on the same port closes the connection the client pools.
        old, (_, port) = served.server, served.address()
        old.shutdown()
        deadline = time.monotonic() + 10
        while old._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        served.server = ServiceHTTPServer(old.routes, port=port).start()
        try:
            again = client.submit_workflow(chain("w"), idempotency_key="key-1")
        finally:
            client.close()
        # Answered with the original decision; nothing counted as a failure.
        assert again == first
        assert breaker.snapshot() == {"state": "closed", "consecutive_failures": 0}
        assert served.connections() == 2
        assert served.service.status().accepted_workflows == 1

    def test_timeout_on_a_reused_connection_is_not_sent_again(self):
        # Not started: a submission waits for the loop, past the timeout.
        served = self.serve(ServiceConfig(), start=False)
        client = HttpServiceClient(served.url, timeout=0.5, max_retries=0)
        try:
            assert client.healthy()  # pools the connection
            with pytest.raises(ServiceUnavailableError):
                client.submit_workflow(chain("w"), idempotency_key="key-1")
            assert served.connections() == 1
        finally:
            client.close()
            served.start_services()
            served.stop()
        metrics = served.service.metrics()
        assert metrics["service.submit.seconds"]["count"] == 1.0

    def test_threads_share_one_client(self, served):
        def submit(thread: int) -> list:
            return [
                served.client.submit_adhoc(adhoc_job(f"t{thread}-{i}", arrival=0))
                for i in range(25)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: races show sooner
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [r for batch in pool.map(submit, range(8)) for r in batch]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200 and all(r.accepted for r in results)
        assert 1 <= served.connections() <= 8

    def test_connection_close_answer_is_not_pooled(self, served):
        assert served.client.healthy()
        # A body over the limit is answered 413 and the connection closed.
        response, _ = served.client._exchange(
            "POST", "/jobs", None, {"Content-Length": str(MAX_BODY_BYTES + 1)}
        )
        assert (response.status, response.will_close) == (413, True)
        assert served.client.status().running
        assert served.connections() == 2
