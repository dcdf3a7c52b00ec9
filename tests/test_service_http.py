"""The HTTP frontend suite (tests/http_suite.py) over the threaded transport."""

import pytest

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
