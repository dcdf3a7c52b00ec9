"""The HTTP frontend suite (tests/http_suite.py) over the asyncio transport.

Passing the same tests as tests/test_service_http.py IS the wire-compat
statement: :class:`~repro.service.client.HttpServiceClient` cannot tell
the transports apart.
"""

import pytest

from tests import http_suite as suite
from tests.http_suite import Asyncio, Router


# A connection left open at shutdown surfaces as an unraisable exception.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


class TestRouteParity(Asyncio, suite.Dialect, suite.ServiceViews, suite.Rejections):
    pass


class TestRequestIds(Asyncio, suite.RequestIds):
    pass


class TestIdempotency(Asyncio, suite.Idempotency):
    pass


class TestConnectionHandling(Asyncio, suite.ConnectionHandling):
    pass


class TestLifecycle(Asyncio, suite.Lifecycle):
    pass


class TestEndToEnd(Asyncio, suite.EndToEnd):
    pass


class TestClientConnections(Asyncio, suite.ClientConnections):
    pass


class TestRouter(
    Asyncio,
    Router,
    suite.Dialect,
    suite.RouterViews,
    suite.Rejections,
    suite.RequestIds,
    suite.Idempotency,
    suite.ConnectionHandling,
):
    """The submission dialect against two ``SchedulerService`` shards behind a router."""
