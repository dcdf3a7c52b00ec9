"""Clients for the scheduler service: in-process and JSON-over-HTTP.

Both speak the same surface (submit workflow / submit ad-hoc / status /
plan / metrics) and return the same :mod:`repro.service.api` value
objects, so test code and tooling can swap a local service for a remote
one by changing one constructor.

Robustness semantics shared by both clients (docs/ROBUSTNESS.md):

* A shed ad-hoc submission (``queue_full``) raises the typed
  :class:`~repro.service.api.QueueFullError` — backpressure is an
  exceptional outcome the caller must handle, not a decision to eyeball
  out of a reason string.
* The HTTP client retries *transient* failures — connection errors,
  ``503`` answers — with capped, jittered exponential backoff, honouring
  ``Retry-After``.  Every submission carries an ``Idempotency-Key``
  (generated unless given), so a retry whose first attempt landed gets
  the original decision back instead of double-admitting.
* An optional :class:`CircuitBreaker` sits in front of the retry loop
  and fast-fails calls while the transport keeps failing.  Any answer
  from the server — a 4xx rejection too — counts as success: the
  breaker tracks the *transport*, not the decision.
* The HTTP client pools HTTP/1.1 keep-alive connections.  A request
  that a *reused* connection loses before any response byte (the server
  closed it while idle) is sent once more on a fresh one — not a retry,
  not a breaker failure.  A timeout is never re-sent.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import uuid
from urllib.parse import urlsplit

from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.service.api import QueueFullError, ServiceStatus, SubmitResult
from repro.workloads.traces import job_to_dict, workflow_to_dict

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "HttpServiceClient",
    "InProcessClient",
    "ServiceError",
    "ServiceUnavailableError",
]


class ServiceError(RuntimeError):
    """The service could not process a request (malformed, not a reject)."""


class ServiceUnavailableError(ServiceError):
    """Transient failure that outlived the client's retry budget."""


class CircuitOpenError(ServiceUnavailableError):
    """Fast-fail: the circuit breaker is open, no request was attempted
    (a :class:`ServiceUnavailableError`, so callers handle it as one)."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      transport failures open the breaker.
    * **open** — every :meth:`allow` is denied (the client fast-fails
      with :class:`CircuitOpenError`) until ``reset_timeout_s`` has
      elapsed since opening.
    * **half-open** — exactly one probe request is let through; success
      closes the breaker, failure re-opens it for another timeout.

    Thread-safe; the clock is injectable for tests.  When ``obs`` is
    given, state changes maintain a ``router.breaker.state.<name>``
    gauge (0 closed / 1 half-open / 2 open) and a
    ``router.breaker.opens.<name>`` counter.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    _STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 2.0,
        *,
        name: str = "",
        obs=None,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.name = name
        self.obs = obs
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False

    def _suffix(self) -> str:
        return f".{self.name}" if self.name else ""

    def _set_state(self, state: str) -> None:
        self._state = state
        if self.obs is not None:
            self.obs.gauge(f"router.breaker.state{self._suffix()}").set(
                self._STATE_VALUES[state]
            )

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request go out now?  (Claims the half-open probe slot.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed < self.reset_timeout_s:
                    if self.obs is not None:
                        self.obs.counter(
                            f"router.breaker.fast_fails{self._suffix()}"
                        ).inc()
                    return False
                self._set_state(self.HALF_OPEN)
                self._probe_in_flight = True
                return True
            # half-open: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != self.CLOSED:
                self._set_state(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._set_state(self.OPEN)
                self._opened_at = self._clock()
                if self.obs is not None:
                    self.obs.counter(
                        f"router.breaker.opens{self._suffix()}"
                    ).inc()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
            }


def _raise_if_shed(result: SubmitResult) -> SubmitResult:
    if not result.accepted and result.reason == "queue_full":
        raise QueueFullError(
            f"ad-hoc job {result.id!r} shed: queue full "
            f"(depth {result.queue_depth})",
            queue_depth=result.queue_depth,
        )
    return result


class InProcessClient:
    """Thin client over a :class:`~repro.service.core.SchedulerService`
    running in this process — the reference implementation of the client
    surface."""

    def __init__(self, service):
        self._service = service

    def submit_workflow(
        self,
        workflow: Workflow,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        return self._service.submit_workflow(
            workflow, idempotency_key=idempotency_key, request_id=request_id
        )

    def submit_adhoc(
        self,
        job: Job,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        return _raise_if_shed(
            self._service.submit_adhoc(
                job, idempotency_key=idempotency_key, request_id=request_id
            )
        )

    def status(self) -> ServiceStatus:
        return self._service.status()

    def plan(self) -> dict:
        return self._service.plan_snapshot()

    def metrics(self) -> dict:
        return self._service.metrics_snapshot()

    def slo(self) -> dict:
        return self._service.slo_snapshot()


class HttpServiceClient:
    """Client for the stdlib HTTP frontend (:mod:`repro.service.http`).

    Submission bodies are the trace wire format
    (:func:`repro.workloads.traces.workflow_to_dict` /
    :func:`~repro.workloads.traces.job_to_dict`), so any trace entry can be
    replayed against a live server verbatim.

    Safe to share between threads; :meth:`close` releases the idle
    connections it pools.

    Args:
        base_url: the server root, e.g. ``http://127.0.0.1:8080``.
        timeout: per-request socket timeout in seconds.
        max_retries: transient-failure retries per request (0 disables).
        backoff_s: base of the exponential backoff.
        backoff_cap_s: ceiling on any single sleep (a ``Retry-After``
            above the cap is trusted over it — the server knows best).
        breaker: optional :class:`CircuitBreaker`; when open, requests
            fast-fail with :class:`CircuitOpenError` without touching
            the wire.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        max_retries: int = 4,
        backoff_s: float = 0.2,
        backoff_cap_s: float = 10.0,
        breaker: CircuitBreaker | None = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.breaker = breaker
        self._rng = random.Random()
        url = urlsplit(self.base_url)
        self._address = (url.hostname, url.port)
        self._root = url.path
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # -- submissions ----------------------------------------------------------------

    def submit_workflow(
        self,
        workflow: Workflow,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        body = self._request(
            "POST",
            "/workflows",
            workflow_to_dict(workflow),
            idempotency_key=idempotency_key or str(uuid.uuid4()),
            # Minted client-side so every retry of this submission carries
            # the same correlation id.
            request_id=request_id or uuid.uuid4().hex,
        )
        return SubmitResult.from_dict(body)

    def submit_adhoc(
        self,
        job: Job,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        body = self._request(
            "POST",
            "/jobs",
            job_to_dict(job),
            idempotency_key=idempotency_key or str(uuid.uuid4()),
            request_id=request_id or uuid.uuid4().hex,
        )
        return _raise_if_shed(SubmitResult.from_dict(body))

    # -- queries -----------------------------------------------------------------------

    def status(self) -> ServiceStatus:
        return ServiceStatus.from_dict(self._request("GET", "/status"))

    def plan(self) -> dict:
        return self._request("GET", "/plan")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def slo(self) -> dict:
        return self._request("GET", "/slo")

    def request_json(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        """One JSON request against any path, retried as usual (the shard
        router drives the ``/shard/*`` endpoints through this)."""
        return self._request(method, path, payload)

    def metrics_prometheus(self) -> str:
        """GET /metrics?format=prometheus — raw text exposition 0.0.4."""
        path = "/metrics?format=prometheus"
        try:
            response, raw = self._exchange("GET", path, None, {"Accept": "text/plain"})
        except _TransientFailure as failure:
            raise ServiceUnavailableError(f"GET {path}: {failure.cause}") from failure.cause
        if response.status != 200:
            raise ServiceUnavailableError(f"GET {path} -> {response.status}")
        return raw.decode("utf-8")

    def close(self) -> None:
        """Close the pooled idle connections (a later request opens anew)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def healthy(self) -> bool:
        """GET /healthz; False on any transport failure (liveness probe)."""
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (ServiceError, OSError):
            return False

    def ready(self) -> bool:
        """GET /readyz; False when not admitting (readiness probe)."""
        try:
            return bool(self._request("GET", "/readyz").get("ready"))
        except (ServiceError, OSError):
            return False

    # -- plumbing -------------------------------------------------------------------

    def _backoff(self, attempt: int, retry_after: float | None) -> float:
        """Sleep duration before retry *attempt* (0-based), with jitter."""
        base = min(self.backoff_s * (2**attempt), self.backoff_cap_s)
        delay = base * (0.5 + 0.5 * self._rng.random())
        if retry_after is not None:
            # The server's hint is a floor: never come back earlier than
            # asked, even if our own backoff would.
            delay = max(delay, retry_after)
        return delay

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> dict:
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if self.breaker is not None and not self.breaker.allow():
                raise CircuitOpenError(
                    f"{method} {path}: circuit breaker "
                    f"{self.breaker.name or self.base_url!r} is open"
                ) from last_error
            try:
                result = self._request_once(
                    method, path, payload, idempotency_key, request_id
                )
            except _TransientFailure as failure:
                if self.breaker is not None:
                    self.breaker.record_failure()
                last_error = failure.cause
                if attempt >= self.max_retries:
                    break
                time.sleep(self._backoff(attempt, failure.retry_after))
                continue
            except ServiceError:
                # The server answered (even if with an error): the
                # transport is fine, so the breaker counts it a success.
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            return result
        raise ServiceUnavailableError(
            f"{method} {path}: no answer after {attempt + 1} "
            f"attempt{'s' if attempt else ''}: {last_error}"
        ) from last_error

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None,
        idempotency_key: str | None,
        request_id: str | None = None,
    ) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if idempotency_key is not None:
            headers["Idempotency-Key"] = idempotency_key
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        response, raw = self._exchange(method, path, data, headers)
        body = _parse_json(raw)
        if 200 <= response.status < 300:
            if not isinstance(body, dict):
                raise ServiceError(f"{method} {path}: non-object response")
            return body
        answer = ServiceError(f"{method} {path} -> {response.status}")
        # Rejections (infeasible, queue_full, draining, invalid
        # submission) travel as non-2xx with a full SubmitResult body —
        # still a well-formed answer, not a transport failure...
        if isinstance(body, dict) and "accepted" in body:
            # ...except a transient "unavailable": that one is worth
            # retrying (the idempotency key makes the retry safe).
            if body.get("reason") == "unavailable":
                raise _TransientFailure(answer, _retry_after_of(response))
            return body
        if response.status == 503:
            # Saturation / stopped frontends answer 503 without a
            # decision body: transient by definition.
            raise _TransientFailure(answer, _retry_after_of(response))
        detail = body.get("error") if isinstance(body, dict) else raw.decode(
            "utf-8", "replace"
        )
        raise ServiceError(f"{method} {path} -> {response.status}: {detail}")

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request/response on an idle pooled connection, or a new one;
        it goes back to the pool once the response is read, unless the
        server said ``Connection: close``.  A reused connection failing
        with ``_STALE`` was closed while idle: send once more, fresh.
        Any other failure, a timeout above all, is a transient one."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        while True:
            if connection is None:
                connection = http.client.HTTPConnection(*self._address, timeout=self.timeout)
            try:
                try:
                    connection.request(method, self._root + path, data, headers)
                    response = connection.getresponse()
                except _STALE:
                    if not reused:
                        raise
                    connection.close()
                    connection, reused = None, False
                    continue
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                # Refused, reset, timed out: the request may or may not
                # have landed — exactly what idempotency keys are for.
                connection.close()
                raise _TransientFailure(error, None) from None
            if response.will_close:
                connection.close()
            else:
                with self._lock:
                    self._idle.append(connection)
            return response, raw


#: How a reused connection fails when the server closed it while idle.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class _TransientFailure(Exception):
    """Internal: a failed attempt the retry loop may try again."""

    def __init__(self, cause: Exception, retry_after: float | None):
        super().__init__(str(cause))
        self.cause = cause
        self.retry_after = retry_after


def _retry_after_of(response: http.client.HTTPResponse) -> float | None:
    value = response.getheader("Retry-After")
    try:
        return float(value) if value is not None else None
    except ValueError:
        return None


def _parse_json(raw: bytes) -> object:
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
