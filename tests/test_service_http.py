"""The HTTP frontend suite (tests/http_suite.py) over the threaded server,
plus what only the server itself can show: its error output and its
behaviour under 64 concurrent keep-alive clients."""

import socket
import struct
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.model.cluster import ClusterCapacity
from repro.service import (
    HttpServiceClient,
    QueueFullError,
    SchedulerService,
    ServiceConfig,
    ServiceError,
    ServiceHTTPServer,
    ServiceRoutes,
)
from repro.workloads.traces import job_to_dict
from tests import http_suite as suite
from tests.conftest import adhoc_job
from tests.http_suite import Router, Served, raw_request


# A connection left open at shutdown surfaces as an unraisable exception.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


class TestEndpoints(suite.Dialect, suite.ServiceViews):
    pass


class TestRejectionStatusCodes(suite.Rejections):
    pass


class TestRequestIds(suite.RequestIds):
    pass


class TestIdempotency(suite.Idempotency):
    pass


class TestConnectionHandling(suite.ConnectionHandling):
    pass


class TestLifecycle(suite.Lifecycle):
    pass


class TestEndToEnd(suite.EndToEnd):
    pass


class TestClientConnections(suite.ClientConnections):
    pass


class TestRouter(
    Router,
    suite.Dialect,
    suite.RouterViews,
    suite.Rejections,
    suite.RequestIds,
    suite.Idempotency,
    suite.ConnectionHandling,
):
    """The submission dialect against two ``SchedulerService`` shards behind a router."""


@pytest.mark.skipif(sys.platform != "linux", reason="the wake-up is Linux's")
def test_shutdown_does_not_wait_out_the_poll():
    service = SchedulerService(ClusterCapacity.uniform(cpu=8, mem=16), ServiceConfig())
    server = ServiceHTTPServer(ServiceRoutes(service))
    threading.Thread(target=server.serve_forever, args=(30.0,), daemon=True).start()
    time.sleep(0.05)  # the loop is parked in its 30 s select()
    start = time.monotonic()
    server.shutdown()
    assert time.monotonic() - start < 5.0


def _wait_until(condition) -> None:
    deadline = time.monotonic() + 10
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert condition()


class TestErrorOutput:
    """A client that goes away is routine and stays off stderr; a handler
    bug still prints its traceback."""

    def test_a_reset_prints_nothing(self, capfd):
        served = Served("service", ServiceConfig())
        try:
            with socket.create_connection(served.address(), timeout=30) as sock:
                # The head never ends, so the handler can only finish on
                # the reset that SO_LINGER 0 turns the close into.
                sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: test\r\n")
                _wait_until(lambda: served.server._connections)  # accepted
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            # Its handler thread has returned.
            _wait_until(lambda: not served.server._connections)
        finally:
            served.stop()
        assert capfd.readouterr().err == ""

    def test_a_handler_bug_still_prints(self, capfd, monkeypatch):
        served = Served("service", ServiceConfig())

        def broken(request):
            raise ValueError("a bug in the route table")

        monkeypatch.setattr(served.server.routes, "handle", broken)
        try:
            with socket.create_connection(served.address(), timeout=30) as sock:
                sock.sendall(b"GET /status HTTP/1.1\r\nHost: test\r\n\r\n")
                assert sock.recv(65536) == b""  # closed with no response
            _wait_until(lambda: not served.server._connections)
        finally:
            served.stop()
        err = capfd.readouterr().err
        assert "Traceback" in err and "a bug in the route table" in err


def _storm(served: Served, clients: int = 64, per_client: int = 25) -> Counter:
    """*clients* keep-alive clients, one thread each, released together,
    each submitting *per_client* ad-hoc jobs: the count of each outcome —
    a decision's reason, ``queue_full`` for a shed, ``error`` for a
    request that got no answer."""
    start = threading.Barrier(clients, timeout=30)

    def client_thread(c: int) -> Counter:
        client = HttpServiceClient(served.url, max_retries=0)
        outcomes = Counter()
        try:
            start.wait()
            for i in range(per_client):
                try:
                    job = adhoc_job(f"c{c}-{i}", arrival=0, count=1, duration=1)
                    result = client.submit_adhoc(job)
                    outcomes[result.reason] += 1
                except QueueFullError:
                    outcomes["queue_full"] += 1
                except ServiceError:
                    outcomes["error"] += 1
        finally:
            client.close()
        return outcomes

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return sum(pool.map(client_thread, range(clients)), Counter())


class TestConcurrentClients:
    """64 keep-alive clients x 25 ad-hoc submissions at once."""

    def test_all_answered_within_the_decide_objective(self):
        served = Served("service", ServiceConfig(adhoc_queue_limit=2048))
        try:
            outcomes = _storm(served)
            assert served.connections() == 64
            decide = served.service.slo()["decide_latency"]
        finally:
            served.stop()
        assert outcomes == {"queued": 1600}
        assert decide["p99_s"] < decide["objective_p99_s"]

    def test_overload_sheds_with_retry_after_then_drains(self):
        # A paced clock with a long slot: nothing completes while the
        # clients run, so the 64-job queue fills and stays full.
        served = Served(
            "service",
            ServiceConfig(adhoc_queue_limit=64, realtime=True, slot_seconds=300.0),
        )
        try:
            outcomes = _storm(served)
            assert served.connections() == 64
            status, body, headers = raw_request(
                served.url + "/jobs", "POST", job_to_dict(adhoc_job("late", arrival=0))
            )
        finally:
            (result,) = served.stop()
        assert outcomes == {"queued": 64, "queue_full": 1536}
        assert (status, body["reason"]) == (429, "queue_full")
        assert int(headers["Retry-After"]) >= 1
        assert result.finished and len(result.jobs) == 64
