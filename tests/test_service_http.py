"""The HTTP frontend suite (tests/http_suite.py) over the threaded transport."""

import sys
import threading
import time

import pytest

from repro.model.cluster import ClusterCapacity
from repro.service import SchedulerService, ServiceConfig, ServiceHTTPServer, ServiceRoutes
from tests import http_suite as suite
from tests.http_suite import Router, Threaded


# A connection left open at shutdown surfaces as an unraisable exception.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


class TestEndpoints(Threaded, suite.Dialect, suite.ServiceViews):
    pass


class TestRejectionStatusCodes(Threaded, suite.Rejections):
    pass


class TestRequestIds(Threaded, suite.RequestIds):
    pass


class TestIdempotency(Threaded, suite.Idempotency):
    pass


class TestConnectionHandling(Threaded, suite.ConnectionHandling):
    pass


class TestLifecycle(Threaded, suite.Lifecycle):
    pass


class TestEndToEnd(Threaded, suite.EndToEnd):
    pass


class TestClientConnections(Threaded, suite.ClientConnections):
    pass


class TestRouter(
    Threaded,
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
