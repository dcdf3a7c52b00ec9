"""Value objects of the scheduler service's submission/query API.

Every transport (the in-process client, the JSON-over-HTTP frontend)
speaks in these types; their ``to_dict`` forms are the HTTP response
bodies, so the in-process and remote views of a decision are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.obs.slo import SLOConfig

if TYPE_CHECKING:  # imported lazily to keep the value-object module light
    from repro.estimation.errors import ErrorModel
    from repro.simulator.failures import FailureModel

__all__ = [
    "QueueFullError",
    "ServiceConfig",
    "ServiceSaturatedError",
    "ServiceStatus",
    "SubmitResult",
]

#: How long a synchronous ``submit_*`` call waits for the service's event
#: loop before ``TimeoutError``.
SUBMIT_TIMEOUT_S = 30.0


class QueueFullError(RuntimeError):
    """An ad-hoc submission was shed because the bounded queue is full.

    Raised by clients (not by the service core, which answers every
    command) so callers can distinguish *shed* from *accepted* without
    inspecting reason strings.  Carries the queue depth at shed time and
    the server's retry hint.
    """

    def __init__(self, message: str, *, queue_depth: int = 0,
                 retry_after_s: float = 1.0):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s


class ServiceSaturatedError(RuntimeError):
    """The submission command queue is saturated; retry after a backoff.

    The HTTP frontend translates this to ``503`` + ``Retry-After``; the
    in-process client lets it propagate.  Distinct from
    :class:`QueueFullError`: saturation is the *control* path (commands
    not yet looked at), shedding is the *work* queue (jobs admitted but
    bounded).
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`~repro.service.core.SchedulerService`.

    Attributes:
        scheduler: registry name of the scheduling policy to run.
        scheduler_kwargs: forwarded to the registry factory (e.g.
            ``{"planner": {"solve_budget_s": 0.5}}``, which is what
            ``repro serve --solve-budget`` sets).
        slot_seconds: modelled duration of one slot (metrics conversion;
            the paper's deployment used 10 s).
        realtime: when True the event loop advances one slot per
            ``slot_seconds`` of wall-clock time (a live server); when False
            time is *virtual* — the clock advances as fast as work exists,
            jumps the gaps in which nothing is live, and parks while the
            system is idle (tests, simulation serving).  The drain run-out
            is unpaced, and jumps such gaps, in both modes.
        batch_window_s: re-planning batch window in wall seconds.  After a
            submission arrives, the loop holds the (virtual) clock open for
            this long so a burst of N submissions coalesces into a single
            arrival slot — and therefore one LP ladder, not N.  0 batches
            only submissions already queued together.
        admission: run the exact max-placement admission check
            (:func:`repro.core.admission.check_admission`) on every
            workflow submission and reject workloads that provably cannot
            meet their deadlines.  False admits everything (paper
            behaviour).  The candidate is decomposed once — proof and
            committed windows alike — the way the scheduler itself
            decomposes (``scheduler_kwargs["cluster_aware_decomposition"]``
            for FlowTime), so there is no second knob to keep in step.
        record_execution: keep per-slot executed-unit rows (Gantt support).
        command_queue_limit: bound on *pending* commands (submissions and
            queries not yet picked up by the event loop).  Beyond it,
            submission raises :class:`ServiceSaturatedError` (HTTP: ``503``
            + ``Retry-After``) instead of queueing without bound behind a
            stalled loop.
        journal_path: when set, accepted submissions are appended to this
            write-ahead JSONL journal (fsync before the client sees the
            decision) and replayed on service start, so a crashed service
            restarts with zero lost accepted work.
        journal_fsync: fsync every journal append (durability); turn off
            only in tests/benchmarks where the journal is about replay
            mechanics, not crash safety.
        failures: optional :class:`~repro.simulator.failures.FailureModel`
            injecting progress setbacks into served slots (mirrors
            ``repro run --setback-prob``).
        error_model: optional :class:`~repro.estimation.errors.ErrorModel`;
            when set, submitted workflows are perturbed at admission time —
            the scheduler plans against erroneous estimates while the
            engine executes true demands (mirrors ``repro run
            --error-low/--error-high``).  Perturbation is seeded per
            workflow id (``fault_seed``), so a journal replay reproduces
            the same believed estimates.
        fault_seed: base seed for ``error_model`` perturbation.
        slo: the objectives behind ``GET /slo``
            (:class:`~repro.obs.SLOConfig`).
    """

    scheduler: str = "FlowTime"
    scheduler_kwargs: Mapping = field(default_factory=dict)
    slot_seconds: float = field(default=10.0, metadata={
        "flag": "--slot-seconds", "help": "modelled duration of one slot in seconds",
    })
    realtime: bool = field(default=False, metadata={
        "flag": "--realtime",
        "help": "advance one slot per --slot-seconds of wall time (live pacing); "
        "default is virtual time (as fast as work exists)",
    })
    # `repro serve` defaults this to 0.05 s: a live server coalesces bursts,
    # while library and test callers want no hold.
    batch_window_s: float = field(default=0.0, metadata={
        "flag": "--batch-window", "metavar": "SECONDS",
        "help": "re-planning batch window: submissions arriving within this "
        "window coalesce into one plan call",
    })
    adhoc_queue_limit: int = field(default=256, metadata={
        "flag": "--queue-limit",
        "help": "max outstanding ad-hoc jobs before shedding (backpressure)",
    })
    admission: bool = field(default=True, metadata={
        "flag": "--no-admission",
        "help": "admit every workflow without the feasibility check",
    })
    record_execution: bool = False
    command_queue_limit: int = 1024
    journal_path: Optional[str] = field(default=None, metadata={
        "flag": "--journal", "type": str, "metavar": "PATH",
        "help": "write-ahead journal of accepted submissions (JSONL, fsync on "
        "accept); an existing journal is replayed on start, so a killed "
        "service restarts with zero lost accepted work",
    })
    journal_fsync: bool = True
    failures: Optional["FailureModel"] = None
    error_model: Optional["ErrorModel"] = None
    fault_seed: int = 0
    slo: SLOConfig = SLOConfig()

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be > 0")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.adhoc_queue_limit < 1:
            raise ValueError("adhoc_queue_limit must be >= 1")
        if self.command_queue_limit < 1:
            raise ValueError("command_queue_limit must be >= 1")


@dataclass(frozen=True)
class SubmitResult:
    """Synchronous outcome of one submission.

    ``reason`` is one of: ``admitted`` (deadline workflow passed the
    admission check), ``queued`` (ad-hoc job accepted into the queue),
    ``infeasible`` (admission proved a deadline shortfall), ``queue_full``
    (ad-hoc backpressure shed), ``draining`` (service no longer admits),
    ``invalid`` (malformed or duplicate submission), ``unavailable``
    (the admission LP solver failed — a retryable condition, HTTP 503).
    """

    accepted: bool
    kind: str  # "workflow" | "adhoc"
    id: str
    reason: str
    utilisation: float = math.nan
    shortfall_units: Mapping[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    #: Correlation id the submission was processed under (minted by the
    #: service when the client sent none); every trace event the
    #: submission generates is stamped with it, so ``repro trace query
    #: RUN.jsonl --request <id>`` reconstructs the full timeline.
    request_id: str = ""
    #: Name of the shard that decided this submission, filled in by the
    #: shard router (empty for a monolithic service).  Lets clients and
    #: the load generator attribute acceptance per shard.
    shard: str = ""

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "kind": self.kind,
            "id": self.id,
            "reason": self.reason,
            "utilisation": None if math.isnan(self.utilisation) else self.utilisation,
            "shortfall_units": dict(self.shortfall_units),
            "queue_depth": self.queue_depth,
            "request_id": self.request_id,
            "shard": self.shard,
        }

    @staticmethod
    def from_dict(data: dict) -> "SubmitResult":
        utilisation = data.get("utilisation")
        return SubmitResult(
            accepted=bool(data["accepted"]),
            kind=data.get("kind", ""),
            id=data.get("id", ""),
            reason=data.get("reason", ""),
            utilisation=math.nan if utilisation is None else float(utilisation),
            shortfall_units=dict(data.get("shortfall_units", {})),
            queue_depth=int(data.get("queue_depth", 0)),
            request_id=data.get("request_id", ""),
            shard=data.get("shard", ""),
        )


@dataclass(frozen=True)
class ServiceStatus:
    """One consistent snapshot of the service's externally visible state."""

    running: bool
    draining: bool
    slot: int
    scheduler: str
    n_workflows: int
    n_jobs: int
    remaining_jobs: int
    queue_depth: int
    accepted_workflows: int
    rejected_workflows: int
    accepted_adhoc: int
    shed_adhoc: int
    replans: int

    def to_dict(self) -> dict:
        return {
            "running": self.running,
            "draining": self.draining,
            "slot": self.slot,
            "scheduler": self.scheduler,
            "n_workflows": self.n_workflows,
            "n_jobs": self.n_jobs,
            "remaining_jobs": self.remaining_jobs,
            "queue_depth": self.queue_depth,
            "accepted_workflows": self.accepted_workflows,
            "rejected_workflows": self.rejected_workflows,
            "accepted_adhoc": self.accepted_adhoc,
            "shed_adhoc": self.shed_adhoc,
            "replans": self.replans,
        }

    @staticmethod
    def from_dict(data: dict) -> "ServiceStatus":
        return ServiceStatus(
            running=bool(data["running"]),
            draining=bool(data["draining"]),
            slot=int(data["slot"]),
            scheduler=data.get("scheduler", ""),
            n_workflows=int(data["n_workflows"]),
            n_jobs=int(data["n_jobs"]),
            remaining_jobs=int(data["remaining_jobs"]),
            queue_depth=int(data["queue_depth"]),
            accepted_workflows=int(data["accepted_workflows"]),
            rejected_workflows=int(data["rejected_workflows"]),
            accepted_adhoc=int(data["accepted_adhoc"]),
            shed_adhoc=int(data["shed_adhoc"]),
            replans=int(data["replans"]),
        )
