"""Shard handles: one duck-typed surface over local and remote shards.

The router, rebalancer, failure detector and supervisor drive a *shard
handle*: the submission surface, the migration protocol and the
skyline/candidate queries under one set of names.

* An in-process shard is a
  :class:`~repro.service.core.SchedulerService` itself (benchmarks,
  tests, and ``repro serve --shards N``, where all shards live in one
  process).  Its :meth:`~repro.service.core.SchedulerService.kill`
  hard-stops the loop mid-flight and
  :meth:`~repro.service.core.SchedulerService.restart` brings it back on
  the *same journal*, exactly like a crashed process restarting.
* :class:`RemoteShard` speaks JSON-over-HTTP to a ``repro serve`` process
  via :class:`~repro.service.client.HttpServiceClient`, using the
  ``/shard/*`` endpoints for migration traffic.  Its lifecycle (start,
  kill, restart) is owned by whoever runs the process — e.g.
  ``scripts/shard_smoke.py`` SIGKILLs and relaunches real subprocesses.

Both answer ad-hoc backpressure with a *returned* ``queue_full``
:class:`~repro.service.api.SubmitResult` (never an exception) so the
router's spill logic can treat every shard answer uniformly, and both
fail a call with one of :data:`_SHARD_ERRORS`.
"""

from __future__ import annotations

from urllib.parse import quote

from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.obs import Observability
from repro.service.api import QueueFullError, ServiceStatus, SubmitResult
from repro.service.client import CircuitBreaker, HttpServiceClient
from repro.workloads.traces import workflow_from_dict, workflow_to_dict

__all__ = ["RemoteShard"]

#: Shard-call failures the fleet treats as "that shard is unavailable":
#: transport errors, retry-budget exhaustion, a stopped service, a stuck
#: event loop.  (ServiceError/ServiceSaturatedError are RuntimeErrors.)
_SHARD_ERRORS = (RuntimeError, TimeoutError, OSError)


def _shed_to_result(error: QueueFullError, job_id: str) -> SubmitResult:
    return SubmitResult(
        accepted=False,
        kind="adhoc",
        id=job_id,
        reason="queue_full",
        queue_depth=error.queue_depth,
    )


class RemoteShard:
    """A shard served by a separate ``repro serve`` process.

    All traffic goes through the retrying HTTP client; migration calls
    use the ``/shard/*`` surface.  ``alive()`` is the liveness probe — a
    SIGKILLed process answers nothing and simply reads as dead until its
    supervisor restarts it on the same journal.

    Args:
        name: shard name (stamped into results by the router).
        url: the shard's server root.
        client: custom :class:`HttpServiceClient`; when omitted, one is
            built with a per-shard :class:`CircuitBreaker` (named after
            the shard, wired to ``obs`` when given) so a hung process
            costs one timeout, not one per call.
        journal_path: where this shard's journal lives *as seen from the
            supervisor's filesystem* — needed only for journal-driven
            failover of shards on shared/local storage.
        obs: observability registry for the default client's breaker
            gauges/counters.
    """

    def __init__(
        self,
        name: str,
        url: str,
        *,
        client: HttpServiceClient | None = None,
        journal_path: str | None = None,
        obs: Observability | None = None,
    ):
        if not name:
            raise ValueError("shard name must be non-empty")
        self.name = name
        self.url = url.rstrip("/")
        self.journal_path = journal_path
        if client is None:
            client = HttpServiceClient(
                self.url,
                breaker=CircuitBreaker(name=name, obs=obs),
            )
        self.client = client

    # -- lifecycle ---------------------------------------------------------------

    def alive(self) -> bool:
        return self.client.healthy()

    # -- submission --------------------------------------------------------------

    def submit_workflow(
        self,
        workflow: Workflow,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        return self.client.submit_workflow(
            workflow, idempotency_key=idempotency_key, request_id=request_id
        )

    def submit_adhoc(
        self,
        job: Job,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        try:
            return self.client.submit_adhoc(
                job, idempotency_key=idempotency_key, request_id=request_id
            )
        except QueueFullError as error:
            return _shed_to_result(error, job.job_id)

    # -- queries -----------------------------------------------------------------

    def status(self) -> ServiceStatus:
        return self.client.status()

    def metrics(self) -> dict:
        return self.client.metrics()

    def slo(self) -> dict:
        return self.client.slo()

    def queue_depth(self) -> int:
        return self.client.status().queue_depth

    # -- migration protocol ------------------------------------------------------

    def skyline(self) -> dict:
        return self.client.request_json("GET", "/shard/skyline")

    def candidates(self, max_n: int = 8) -> list[dict]:
        body = self.client.request_json(
            "GET", f"/shard/candidates?max={int(max_n)}"
        )
        return list(body.get("candidates", []))

    def orphans(self) -> dict[str, dict]:
        body = self.client.request_json("GET", "/shard/orphans")
        return dict(body.get("orphans", {}))

    def workflow_ids(self) -> list[str]:
        body = self.client.request_json("GET", "/shard/workflows")
        return list(body.get("workflows", []))

    def owns(self, workflow_id: str) -> bool:
        body = self.client.request_json(
            "GET", f"/shard/owns?workflow={quote(workflow_id, safe='')}"
        )
        return bool(body.get("owns"))

    def migrate_out(self, workflow_id: str, *, dest: str, epoch: int) -> dict:
        body = self.client.request_json(
            "POST",
            "/shard/migrate-out",
            {"workflow_id": workflow_id, "dest": dest, "epoch": epoch},
        )
        return {
            "workflow": workflow_from_dict(body["workflow"]),
            "key": body.get("key"),
            "epoch": int(body.get("epoch", epoch)),
        }

    def migrate_in(
        self, workflow: Workflow, *, key: str | None = None, epoch: int = 0
    ) -> SubmitResult:
        body = self.client.request_json(
            "POST",
            "/shard/migrate-in",
            {"workflow": workflow_to_dict(workflow), "key": key, "epoch": epoch},
        )
        return SubmitResult.from_dict(body)

    def restore(
        self, workflow: Workflow, *, key: str | None = None
    ) -> SubmitResult:
        body = self.client.request_json(
            "POST",
            "/shard/restore",
            {"workflow": workflow_to_dict(workflow), "key": key},
        )
        return SubmitResult.from_dict(body)

    def restore_orphan(self, workflow_id: str) -> SubmitResult:
        body = self.client.request_json(
            "POST", "/shard/restore", {"workflow_id": workflow_id}
        )
        return SubmitResult.from_dict(body)

    def confirm(self, workflow_id: str, *, epoch: int) -> dict:
        return self.client.request_json(
            "POST",
            "/shard/confirm",
            {"workflow_id": workflow_id, "epoch": epoch},
        )
