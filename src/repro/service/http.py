"""Threaded HTTP transport: one OS thread per connection, stdlib only.

A :class:`http.server.ThreadingHTTPServer` that moves bytes to and from
a route table (:mod:`repro.service.routes`) — parse the head, read the
body the table asks for, call ``routes.handle``, write the
:class:`~repro.service.routes.Response` — and blocks its handler thread
while the backend decides.  It knows no path, status code or header of
the dialect: :func:`serve_http` hands it the table over one
:class:`~repro.service.core.SchedulerService`,
:class:`repro.cluster.http.RouterHTTPServer` the one over a shard
router.  It is ``repro serve``'s one frontend, with or without
``--shards``.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.core import SchedulerService
from repro.service.routes import Request, Routes, ServiceRoutes

__all__ = ["ServiceHTTPServer", "serve_http"]

#: Per-read timeout and keep-alive idle limit of a connection.
IO_TIMEOUT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-scheduler"
    # A keep-alive connection idle this long gives its thread back.
    timeout = IO_TIMEOUT_S

    def _serve(self) -> None:
        headers = {name.lower(): value for name, value in self.headers.items()}
        request = Request(self.command, self.path, headers)
        request.body = self.rfile.read(request.length)
        if len(request.body) < request.length:
            # The client closed before its declared body arrived: acting
            # on the part that did could queue a job nobody sent whole.
            self.close_connection = True
            return
        response = self.server.routes.handle(request)  # type: ignore[attr-defined]
        # Nothing after this response is read from the socket when the
        # table says close, or the client asked to (parse_request's flag).
        self.close_connection = response.close or self.close_connection
        self.log_request(response.status, len(response.body))
        self.wfile.write(response.encode(self.close_connection))

    do_GET = do_POST = _serve  # noqa: N815 (http.server API)

    def __getattr__(self, name: str):
        # http.server answers 501 when do_<METHOD> is missing; every
        # method goes to the route table instead, which answers 405.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def log_message(self, format: str, *args) -> None:
        # Route access logs through the obs layer instead of stderr so
        # quiet runs stay quiet.
        self.server.routes.obs.log(  # type: ignore[attr-defined]
            logging.DEBUG, "http %s " + format, self.client_address[0], *args
        )


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer serving one route table (named for its first
    backend, the single service).

    ``port=0`` binds an ephemeral port; read it back from :attr:`url`.
    ``serve_forever()`` blocks; :meth:`start` runs it on a daemon thread.
    The caller owns shutdown ordering: :meth:`shutdown` first (stop
    accepting requests), then drain the backend.
    """

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default of 5 refuses a burst of new connections (many
    # clients starting at once) long before the service is busy.
    request_queue_size = 128

    def __init__(self, routes: Routes, host: str = "127.0.0.1", port: int = 0):
        self.routes = routes
        self._connections: set[socket.socket] = set()
        super().__init__((host, port), _Handler)

    def process_request(self, request, client_address) -> None:
        self._connections.add(request)
        self.routes.obs.counter("http.connections").inc()
        super().process_request(request, client_address)

    def handle_error(self, request, client_address) -> None:
        # A client that resets or stalls is routine; any other error
        # escaping a handler is a bug and keeps the stdlib's traceback.
        error = sys.exc_info()[1]
        if isinstance(error, (ConnectionError, TimeoutError)):
            self.routes.obs.log(
                logging.DEBUG, "http %s dropped: %r", client_address[0], error
            )
        else:
            super().handle_error(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self._connections.discard(request)

    def start(self) -> "ServiceHTTPServer":
        threading.Thread(
            target=self.serve_forever, args=(0.05,), name="repro-http", daemon=True
        ).start()
        return self

    def shutdown(self) -> None:
        """Stop accepting requests and release the port; a request in
        flight is answered, then its connection closes.  Shutting the
        listening socket wakes the serve loop (on Linux) before its poll."""
        with contextlib.suppress(OSError):
            self.socket.shutdown(socket.SHUT_RDWR)
        super().shutdown()
        self.server_close()
        for connection in tuple(self._connections):
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RD)

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def serve_http(
    service: SchedulerService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Start the threaded frontend over *service* on a daemon thread;
    returns the server."""
    return ServiceHTTPServer(ServiceRoutes(service), host, port).start()
