"""The online scheduler service: FlowTime as a long-running server.

The batch :class:`~repro.simulator.engine.Simulation` replays a canned
workload; this package serves a *dynamic* one.  A single event-loop thread
(:class:`~repro.service.core.SchedulerService`) owns the clock and drives
the thread-free :class:`~repro.service.state.ServiceState` (engine core +
ledger); submissions arrive through its thread-safe API — called
in-process, or over stdlib JSON/HTTP (one route table,
:mod:`repro.service.routes`, behind a threaded transport;
:class:`~repro.service.client.HttpServiceClient`) — and are
admission-checked, batched into shared re-plans, and backpressured when
the ad-hoc queue fills.  ``repro serve`` is the CLI entry point; see
docs/ARCHITECTURE.md for how the batch and service paths share the
engine core.

Fault tolerance (docs/ROBUSTNESS.md): accepted submissions are journaled
write-ahead (:mod:`repro.service.journal`) and replayed on restart;
clients retry transient failures with idempotency keys; saturation and
shedding surface as typed errors (:class:`~repro.service.api.
ServiceSaturatedError`, :class:`~repro.service.api.QueueFullError`).
"""

from repro.service.api import (
    QueueFullError,
    ServiceConfig,
    ServiceSaturatedError,
    ServiceStatus,
    SubmitResult,
)
from repro.service.client import (
    HttpServiceClient,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.core import SchedulerService
from repro.service.http import ServiceHTTPServer, serve_http
from repro.service.journal import JournalRecord, SubmissionJournal, read_journal
from repro.service.routes import Request, Response, Routes, ServiceRoutes
from repro.service.state import ServiceState
from repro.service.top import render_dashboard, run_top

__all__ = [
    "HttpServiceClient",
    "JournalRecord",
    "QueueFullError",
    "Request",
    "Response",
    "Routes",
    "SchedulerService",
    "ServiceConfig",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceRoutes",
    "ServiceSaturatedError",
    "ServiceState",
    "ServiceStatus",
    "ServiceUnavailableError",
    "SubmissionJournal",
    "SubmitResult",
    "read_journal",
    "render_dashboard",
    "run_top",
    "serve_http",
]
