"""Asyncio HTTP transport: every connection a coroutine on one loop.

Serves the same route table as the threaded transport
(:mod:`repro.service.http`) — the dialect lives in
:mod:`repro.service.routes`; this module only parses HTTP/1.1 (keep-alive,
``Content-Length`` bodies, per-read timeouts) and decides how to wait:

* **Submissions to a service** call ``submit_*(wait=False)``, which
  enqueues the command and returns a ``concurrent.futures.Future``; the
  coroutine awaits it via :func:`asyncio.wrap_future` — no thread blocks
  while the scheduler's event loop decides.  (Sending these to the
  executor too cost 11-16 % of sustained throughput at 1300/s offered.)
* **Everything else** — snapshot reads, ``/shard/*`` coordination, and
  every request to a router, whose shards may be a network hop away —
  runs the blocking ``routes.handle`` on the default thread executor.

The threaded server pays a thread spawn per connection; here the one
accept loop is the natural backpressure that keeps memory bounded under
overload.  Run it with ``repro serve --async`` (with or without
``--shards``), or in-process as
``AsyncServiceHTTPServer(ServiceRoutes(service)).start()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Optional

from repro.service.routes import Request, Response, Routes

__all__ = ["AsyncServiceHTTPServer"]

#: Per-read timeout (request head, body) and keep-alive idle limit.
_IO_TIMEOUT_S = 30.0
#: Upper bound on the request head (request line + headers).
_MAX_HEAD_BYTES = 64 * 1024


class AsyncServiceHTTPServer:
    """Asyncio HTTP server over one route table.

    Runs on a dedicated daemon thread owning its own event loop, so
    in-process callers (tests, the CLI, benchmarks) use it exactly like
    the threaded server: construct, :meth:`start`, read :attr:`url`,
    later :meth:`shutdown` — then drain the backend.
    """

    def __init__(self, routes: Routes, host: str = "127.0.0.1", port: int = 0):
        self.routes = routes
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._sockname: tuple = (host, port)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "AsyncServiceHTTPServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-http-aio", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection,
                    self._host,
                    self._port,
                    limit=_MAX_HEAD_BYTES,
                )
            )
        except BaseException as error:  # bind failure surfaces in start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._sockname = server.sockets[0].getsockname()
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def shutdown(self) -> None:
        """Stop accepting requests and join the server thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    @property
    def url(self) -> str:
        host, port = self._sockname[0], self._sockname[1]
        return f"http://{host}:{port}"

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                response = await self._respond(request)
                close = (
                    response.close
                    or request.headers.get("connection", "").lower() == "close"
                )
                writer.write(response.encode(close))
                await writer.drain()
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
        ):
            pass  # client went away / abused the protocol: just close
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[Request]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=_IO_TIMEOUT_S
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            return None  # clean close between requests / idle keep-alive
        try:
            request_line, _, header_blob = head.partition(b"\r\n")
            method, target, _version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in header_blob.decode("latin-1").split("\r\n"):
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        request = Request(method, target, headers)
        if request.length:
            request.body = await asyncio.wait_for(
                reader.readexactly(request.length), timeout=_IO_TIMEOUT_S
            )
        return request

    async def _respond(self, request: Request) -> Response:
        routes = self.routes
        start = time.perf_counter()
        submission = (
            routes.parse_submission(request)
            if routes.submit_timeout_s is not None
            else None
        )
        if submission is None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, routes.handle, request)
        try:
            if isinstance(submission, Response):
                return submission
            try:
                # shield: a timeout must not cancel the service's future,
                # which its loop thread will still resolve.
                outcome = await asyncio.wait_for(
                    asyncio.shield(
                        asyncio.wrap_future(submission.call(wait=False))
                    ),
                    timeout=routes.submit_timeout_s,
                )
            except asyncio.TimeoutError:
                outcome = TimeoutError()
            except Exception as error:  # mapped by the route table
                outcome = error
            return routes.submission_response(submission, outcome)
        finally:
            routes.record(start)

