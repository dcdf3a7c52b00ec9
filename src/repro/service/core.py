"""The long-running scheduler service: submissions in, plans out.

FlowTime is an *online* system — workflows and ad-hoc jobs arrive
dynamically and the scheduler re-plans on each arrival (Sec. III/V) — but
the batch :class:`~repro.simulator.engine.Simulation` can only replay a
canned trace.  :class:`SchedulerService` is the serving path: a single
event-loop thread owns the clock and the scheduler, and a thread-safe
submission API feeds it while it runs.

Design points:

* **One writer.**  All scheduler/engine state is touched only by the event
  loop; submissions and lifecycle transitions travel through a command
  queue and get their answers via futures.  Admission decisions are
  therefore strictly serialised — two racing submissions can never both be
  admitted against the same headroom.
* **Batched re-planning.**  Submissions are injected into the engine the
  moment their command is processed, but the (virtual) clock is held open
  for ``batch_window_s`` after each arrival, so a burst of N submissions
  lands in a single slot — one ``WORKFLOW_ARRIVED`` batch, one LP ladder,
  not N.  The per-replan coalescing factor is recorded in the
  ``service.replan.batch_size`` histogram.
* **Admission + backpressure.**  Deadline workflows pass the exact
  max-placement admission check (:func:`repro.core.admission.
  check_admission`) synchronously at submission; ad-hoc jobs enter a
  bounded queue and are shed once ``adhoc_queue_limit`` jobs are
  outstanding (``service.queue.depth`` gauge, ``service.queue.shed``
  counter).
* **Graceful drain.**  ``drain()`` stops admitting, finishes every
  in-flight job (running the clock out virtually), flushes the trace sink,
  and returns the run's :class:`~repro.simulator.result.SimulationResult`
  — the same object a batch run produces, so outcome equivalence is
  directly checkable.
* **Crash safety.**  With ``journal_path`` set, every accepted submission
  is fsync'd to a write-ahead JSONL journal *before* the client sees the
  decision, and a restarting service replays the journal — re-admitting
  every previously accepted workflow and ad-hoc job without re-running
  admission (accepted stays accepted).  Idempotency keys submitted with
  HTTP retries are also journaled, so a client that never saw its
  pre-crash answer can safely retry the same key after the restart.
  ``kill()`` simulates the crash itself (no drain, no flush) for chaos
  testing.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import replace
from typing import Optional

from repro.core.admission import check_admission
from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.core.flowtime import JobDemand, PlannerConfig
from repro.estimation.errors import (
    apply_estimation_errors,
    apply_workflow_estimation_errors,
)
from repro.lp.solver import SolverFailure
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind
from repro.model.workflow import Workflow
from repro.obs import (
    Observability,
    SLOConfig,
    SLOTracker,
    json_safe,
    new_request_id,
    use_obs,
    use_request_id,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.service.api import (
    ServiceConfig,
    ServiceSaturatedError,
    ServiceStatus,
    SubmitResult,
)
from repro.service.journal import SubmissionJournal
from repro.simulator.engine import SimulationConfig
from repro.simulator.result import SimulationResult
from repro.simulator.runtime import EngineCore, make_engine_core

__all__ = ["SchedulerService"]

#: How long the loop parks on the command queue while idle (seconds).
#: Small enough to notice lifecycle flags promptly, large enough that an
#: idle service costs no measurable CPU.
_IDLE_POLL_S = 0.05

#: Hard cap on how long a continuous submission stream can hold the
#: (virtual) clock open, as a multiple of the batch window — batching must
#: never become starvation.
_BATCH_CAP_FACTOR = 16.0


class _Command:
    """One queued instruction for the event loop."""

    __slots__ = ("kind", "payload", "key", "request_id", "future")

    def __init__(
        self,
        kind: str,
        payload=None,
        key: Optional[str] = None,
        request_id: Optional[str] = None,
    ):
        self.kind = kind
        self.payload = payload
        self.key = key  # idempotency key, if the client sent one
        # Correlation id: the submitting thread's context dies with the
        # HTTP response, so the id rides the command onto the loop thread.
        self.request_id = request_id
        self.future: Future = Future()


class SchedulerService:
    """An online scheduler serving dynamic submissions over one cluster.

    Typical in-process use::

        service = SchedulerService(cluster)
        service.start()
        result = service.submit_workflow(workflow)   # sync accept/reject
        service.submit_adhoc(job)
        ...
        final = service.drain()                      # graceful run-out

    The HTTP frontend (:mod:`repro.service.http`) wraps exactly this
    surface; see :class:`~repro.service.api.ServiceConfig` for the knobs.
    """

    def __init__(
        self,
        cluster: ClusterCapacity,
        config: ServiceConfig | None = None,
        *,
        scheduler: Scheduler | None = None,
        obs: Observability | None = None,
    ):
        self.cluster = cluster
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability()
        scheduler_kwargs = dict(self.config.scheduler_kwargs)
        if self.config.lp_backend and self.config.scheduler.startswith("FlowTime"):
            planner = dict(scheduler_kwargs.get("planner", {}))
            planner.setdefault("backend", self.config.lp_backend)
            scheduler_kwargs["planner"] = planner
        self.scheduler = (
            scheduler
            if scheduler is not None
            else make_scheduler(self.config.scheduler, **scheduler_kwargs)
        )
        self._core = make_engine_core(
            cluster,
            self.scheduler,
            SimulationConfig(
                slot_seconds=self.config.slot_seconds,
                strict=self.config.strict,
                record_execution=self.config.record_execution,
                failures=self.config.failures,
            ),
            self.obs,
        )
        self._commands: "queue.Queue[_Command]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._started = False
        self._draining = False
        self._stopped = threading.Event()
        self._killed = threading.Event()
        self._result: Optional[SimulationResult] = None
        # Decomposed windows of every admitted workflow's jobs; the
        # admission check's view of already-committed deadline work.
        self._windows: dict[str, JobWindow] = {}
        self._batch_open_since: Optional[float] = None
        self._batch_last_arrival = 0.0
        self._accepted_workflows = 0
        self._rejected_workflows = 0
        self._accepted_adhoc = 0
        self._shed_adhoc = 0
        # Decisions of accepted keyed submissions: a retried idempotency
        # key returns its original decision instead of double-admitting.
        self._idempotency: dict[str, SubmitResult] = {}
        # Reverse map entity id -> idempotency key, so a migrating workflow
        # carries its key to the destination shard (the key must keep
        # deduplicating wherever the workflow now lives).
        self._idempotency_by_id: dict[str, str] = {}
        # Unsettled outbound migrations: workflow id -> handoff info.  An
        # entry exists from migrate_out until confirm/restore (and is
        # rebuilt from unconfirmed journal tombstones after a crash).
        # Orphans are owned by nobody until the coordinator reconciles —
        # held, never unilaterally re-admitted, so they cannot duplicate.
        self._orphans: dict[str, dict] = {}
        # Highest migration epoch seen per workflow id (journal-rebuilt).
        # ``migrate_in`` rejects handoffs below this watermark with
        # ``stale_epoch``: a zombie shard replaying a pre-crash handoff
        # cannot re-land a workflow a newer migration already moved on.
        self._migration_epochs: dict[str, int] = {}
        self._journal: Optional[SubmissionJournal] = None
        if self.config.journal_path:
            with use_obs(self.obs):
                self._recover_from_journal(self.config.journal_path)
            self._journal = SubmissionJournal(
                self.config.journal_path, fsync=self.config.journal_fsync
            )
        # Rolling service-path metrics (bounded memory; see repro.obs.windowed)
        # and the SLO tracker reading the engine's slo.* feed metrics.
        self._submit_requests = self.obs.windowed_counter(
            "service.submit.requests"
        )
        self._submit_latency = self.obs.windowed_histogram(
            "service.submit.seconds"
        )
        self.slo = SLOTracker(
            self.obs.registry,
            SLOConfig(
                deadline_objective=self.config.slo_deadline_objective,
                decide_p99_s=self.config.slo_decide_p99_s,
                window_s=self.config.slo_window_s,
            ),
        )
        self._status = self._make_status(running=False, draining=False)

    # -- durability -----------------------------------------------------------------

    def _entity_seed(self, entity_id: str) -> int:
        """Per-entity deterministic seed for estimation-error perturbation.

        Derived from the entity id (not submission order), so a journal
        replay — which may interleave with new submissions — reproduces
        exactly the same believed-vs-true structure per job.
        """
        return zlib.crc32(entity_id.encode("utf-8")) ^ (
            self.config.fault_seed & 0xFFFFFFFF
        )

    def _perturb_workflow(self, workflow: Workflow) -> Workflow:
        model = self.config.error_model
        if model is None:
            return workflow
        return apply_workflow_estimation_errors(
            workflow, model, seed=self._entity_seed(workflow.workflow_id)
        )

    def _perturb_adhoc(self, job: Job) -> Job:
        model = self.config.error_model
        if model is None:
            return job
        return apply_estimation_errors(
            [job], model, seed=self._entity_seed(job.job_id)
        )[0]

    def _recover_from_journal(self, path: str) -> None:
        """Replay accepted submissions from a pre-crash journal.

        Admission is *not* re-run: an accepted submission stays accepted —
        the service owes it completion, not a second opinion.  Execution
        progress was never journaled, so recovered jobs restart from zero
        executed units (conservative, never lossy).  Idempotency keys are
        restored so pre-crash client retries still deduplicate.

        Migration records fold in journal order into a final per-workflow
        disposition: a plain ``workflow`` record (re-)admits, a
        ``migrate_out`` tombstone withdraws, and an *unconfirmed* tombstone
        leaves the workflow an orphan — held for the router's reconcile,
        never re-admitted here, so a destination that did journal it
        cannot be duplicated.  A ``migrate_confirm`` settles the tombstone
        (the workflow is simply gone from this shard).
        """
        records, skipped = SubmissionJournal.read(path)
        # Pass 1: final disposition per workflow id (ordered fold), plus
        # the per-workflow migration-epoch watermark (survives crashes so
        # the stale-epoch fence does too).
        disposition: dict[str, Optional[object]] = {}
        for record in records:
            if record.kind in ("workflow", "migrate_out"):
                disposition[record.entity.workflow_id] = record
            elif record.kind == "migrate_confirm":
                disposition[record.workflow_id] = None
            if record.kind in ("migrate_out", "migrate_confirm"):
                wid = (
                    record.workflow_id
                    if record.kind == "migrate_confirm"
                    else record.entity.workflow_id
                )
                epoch = int(record.epoch or 0)
                if epoch > self._migration_epochs.get(wid, 0):
                    self._migration_epochs[wid] = epoch
        # Pass 2: replay.  Ad-hoc records stream as before; each workflow
        # id replays once, from its *final* record.
        recovered = 0
        orphaned = 0
        seen: set[str] = set()
        for record in records:
            if record.kind == "adhoc":
                job = record.entity
                if self._core.has_job(job.job_id):
                    continue
                try:
                    self._core.add_adhoc(self._perturb_adhoc(job))
                except ValueError:
                    skipped += 1
                    continue
                self._accepted_adhoc += 1
                recovered += 1
                if record.key:
                    self._idempotency[record.key] = SubmitResult(
                        accepted=True,
                        kind="adhoc",
                        id=job.job_id,
                        reason="queued",
                    )
                continue
            if record.kind == "migrate_confirm":
                continue
            wid = record.entity.workflow_id
            if wid in seen:
                continue
            seen.add(wid)
            final = disposition.get(wid)
            if final is None:
                continue  # confirmed away: owned by another shard
            if final.kind == "migrate_out":
                self._orphans[wid] = {
                    "workflow": final.entity,
                    "key": final.key,
                    "dest": final.dest,
                    "epoch": final.epoch,
                }
                orphaned += 1
                continue
            workflow = final.entity
            if workflow.workflow_id in self._core.workflows:
                continue  # older journal generation already replayed it
            try:
                decomposition = decompose_deadline(
                    workflow,
                    self.cluster,
                    cluster_aware=self.config.cluster_aware_decomposition,
                )
                self._core.add_workflow(self._perturb_workflow(workflow))
            except ValueError:
                skipped += 1
                continue
            self._windows.update(decomposition.windows)
            self._accepted_workflows += 1
            recovered += 1
            if final.key:
                self._idempotency[final.key] = SubmitResult(
                    accepted=True,
                    kind="workflow",
                    id=workflow.workflow_id,
                    reason="admitted",
                )
                self._idempotency_by_id[workflow.workflow_id] = final.key
        if recovered or skipped or orphaned:
            self.obs.counter("service.journal.recovered").inc(recovered)
            if skipped:
                self.obs.counter("service.journal.skipped").inc(skipped)
            if orphaned:
                self.obs.counter("service.journal.orphaned").inc(orphaned)
            self.obs.event(
                "service_recovered",
                journal=str(path),
                n_recovered=recovered,
                n_skipped=skipped,
            )

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "SchedulerService":
        """Spawn the event-loop thread (idempotent while running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        if self._stopped.is_set():
            raise RuntimeError("service already stopped; create a new one")
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler-service", daemon=True
        )
        self._started = True
        self._thread.start()
        return self

    def drain(self, timeout: float | None = None) -> SimulationResult:
        """Gracefully drain: stop admitting, finish in-flight work, flush.

        Returns the final :class:`~repro.simulator.result.SimulationResult`
        covering everything the service executed.  Safe to call more than
        once (subsequent calls return the same result).
        """
        if self._stopped.is_set():
            if self._result is None:
                raise RuntimeError(
                    "service stopped without a result (killed?); restart a "
                    "new service on the same journal to recover accepted work"
                )
            return self._result
        if self._thread is None or not self._thread.is_alive():
            raise RuntimeError("service is not running")
        command = _Command("drain")
        self._commands.put(command)
        result = command.future.result(timeout=timeout)
        self._thread.join(timeout=timeout)
        return result

    def stop(self, timeout: float | None = None) -> SimulationResult:
        """Alias for :meth:`drain` (SIGTERM semantics: drain, then exit)."""
        return self.drain(timeout=timeout)

    def kill(self, timeout: float | None = None) -> None:
        """Simulate a crash (SIGKILL semantics): stop without draining.

        The event loop exits at the next opportunity — no drain, no final
        result, in-flight work abandoned mid-slot.  Exists for chaos
        testing the journal recovery path: everything a client was told
        was accepted is already fsync'd, so a new service started on the
        same ``journal_path`` must recover all of it.
        """
        if self._thread is None or not self._thread.is_alive():
            self._killed.set()
            return
        self._killed.set()
        # Unblock a loop parked on the command queue so death is prompt.
        self._commands.put(_Command("kill"))
        self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def draining(self) -> bool:
        return self._draining

    def result(self) -> SimulationResult:
        """The final result (only after :meth:`drain`/:meth:`stop`)."""
        if self._result is None:
            raise RuntimeError("service has not drained yet")
        return self._result

    # -- submission API ---------------------------------------------------------------

    def submit_workflow(
        self,
        workflow: Workflow,
        *,
        wait: bool = True,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> "SubmitResult | Future":
        """Submit a deadline workflow; returns the admission decision.

        With ``wait=False`` the future resolves once the event loop
        processes the command (submissions enqueued before :meth:`start`
        are all decided, in order, before the clock first advances).
        A repeated ``idempotency_key`` whose original submission was
        accepted returns the original decision instead of re-admitting.
        ``request_id`` correlates the submission's trace events; one is
        minted when not supplied, and either way it is echoed on the
        :class:`~repro.service.api.SubmitResult`.
        """
        return self._submit(
            _Command(
                "workflow",
                workflow,
                idempotency_key,
                request_id or new_request_id(),
            ),
            wait,
        )

    def submit_adhoc(
        self,
        job: Job,
        *,
        wait: bool = True,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> "SubmitResult | Future":
        """Submit an ad-hoc job into the bounded best-effort queue."""
        return self._submit(
            _Command(
                "adhoc", job, idempotency_key, request_id or new_request_id()
            ),
            wait,
        )

    def _submit(self, command: _Command, wait: bool) -> "SubmitResult | Future":
        if self._stopped.is_set():
            raise RuntimeError("service is stopped")
        if self._commands.qsize() >= self.config.command_queue_limit:
            # Control-path backpressure: a stalled loop must not accumulate
            # unbounded blocked submitters; tell them to retry instead.
            self.obs.counter("service.saturated").inc()
            raise ServiceSaturatedError(
                f"command queue saturated "
                f"({self.config.command_queue_limit} pending)",
                retry_after_s=max(self.config.batch_window_s, 1.0),
            )
        self._submit_requests.inc()
        start = time.perf_counter()
        # Admission latency, enqueue -> decision, whether the submitter
        # blocks below or awaits the future.
        command.future.add_done_callback(
            lambda _: self._submit_latency.observe(time.perf_counter() - start)
        )
        self._commands.put(command)
        if not wait:
            return command.future
        return command.future.result(timeout=self.config.submit_timeout_s)

    # -- query API ---------------------------------------------------------------------

    def status(self) -> ServiceStatus:
        """A consistent snapshot of externally visible state."""
        with self._lock:
            return self._status

    def plan_snapshot(self) -> dict:
        """The live allocation plan as a JSON-friendly dict.

        Empty for schedulers that do not expose a plan (duck-typed on a
        ``current_plan`` attribute; FlowTime replaces plans wholesale on
        each re-plan, so reading the reference cross-thread is safe).
        """
        plan = getattr(self.scheduler, "current_plan", None)
        if plan is None:
            return {"origin_slot": None, "horizon": 0, "jobs": {}}
        jobs = {}
        for job_id, grant in plan.grants.items():
            nonzero = [
                [plan.origin_slot + k, int(units)]
                for k, units in enumerate(grant)
                if units
            ]
            if nonzero:
                jobs[job_id] = {
                    "total_units": int(grant.sum()),
                    "slots": nonzero,
                }
        return {
            "origin_slot": plan.origin_slot,
            "horizon": plan.horizon,
            "degraded": plan.degraded,
            "jobs": jobs,
        }

    def metrics_snapshot(self) -> dict:
        """Metrics registry snapshot (retried around racy registrations).

        Strict-JSON safe: non-finite floats (unset gauges, empty-histogram
        stats) are serialised as ``None``, never as bare ``NaN``.
        """
        for _ in range(8):
            try:
                return json_safe(self.obs.registry.snapshot())
            except RuntimeError:  # registry grew mid-iteration; retry
                continue
        return {}

    def slo_snapshot(self) -> dict:
        """SLO status (error budget, burn rate, decide p99) as a JSON dict."""
        return json_safe(self.slo.snapshot())

    # -- event loop -----------------------------------------------------------------

    def _loop(self) -> None:
        # Everything the loop touches (scheduler, planner, admission LP)
        # records into this service's observability handle.
        with use_obs(self.obs):
            self.obs.event(
                "service_start",
                scheduler=getattr(self.scheduler, "name", ""),
                realtime=self.config.realtime,
            )
            try:
                self._run_loop()
            finally:
                self._finish()

    def _run_loop(self) -> None:
        core = self._core
        config = self.config
        self._refresh_status()
        next_tick = time.monotonic() + config.slot_seconds
        while not self._draining:
            if self._killed.is_set():
                return  # crash simulation: no drain, no flush, no result
            command = self._next_command(core, next_tick)
            drained_now = False
            while command is not None:
                if command.kind == "kill":
                    command.future.set_result(None)
                    return
                if command.kind == "drain":
                    self._draining = True
                    drained_now = True
                    drain_command = command
                    break
                if command.kind == "call":
                    self._handle_call(command)
                else:
                    self._handle_submission(command)
                command = self._poll_command()
            if drained_now:
                self._drain_out(drain_command)
                return
            now = time.monotonic()
            if config.realtime:
                # Wall-clock pacing owns the mapping of slots to seconds:
                # one slot per tick, idle or not, never a jump.
                while now >= next_tick:
                    self._step()
                    next_tick += config.slot_seconds
            elif not core.finished and not self._batch_window_open(now):
                # The engine's horizon caps the jump, so a far-future
                # arrival slot from a client cannot make one call
                # allocate that many rows; past it the clock just steps.
                if not core.skip_idle(core.config.max_slots):
                    self._step()
            self._refresh_status()

    def _next_command(self, core: EngineCore, next_tick: float) -> Optional[_Command]:
        """Fetch the next command, blocking only when there is nothing to do."""
        config = self.config
        if config.realtime:
            timeout = max(next_tick - time.monotonic(), 0.0)
            timeout = min(timeout, _IDLE_POLL_S if core.finished else timeout)
        elif self._batch_window_open(time.monotonic()):
            timeout = min(self._batch_window_remaining(), _IDLE_POLL_S)
        elif core.finished:
            timeout = _IDLE_POLL_S  # idle: park until work arrives
        else:
            return self._poll_command()  # work pending: never block
        try:
            return self._commands.get(timeout=max(timeout, 0.001))
        except queue.Empty:
            return None

    def _poll_command(self) -> Optional[_Command]:
        try:
            return self._commands.get_nowait()
        except queue.Empty:
            return None

    # -- batching -------------------------------------------------------------------

    def _note_arrival(self) -> None:
        now = time.monotonic()
        if self._batch_open_since is None:
            self._batch_open_since = now
        self._batch_last_arrival = now

    def _batch_window_open(self, now: float) -> bool:
        if self._batch_open_since is None or self.config.batch_window_s <= 0:
            return False
        window = self.config.batch_window_s
        if now - self._batch_open_since >= window * _BATCH_CAP_FACTOR:
            self._batch_open_since = None  # cap: never starve the clock
            return False
        if now - self._batch_last_arrival >= window:
            self._batch_open_since = None
            return False
        return True

    def _batch_window_remaining(self) -> float:
        if self._batch_open_since is None:
            return 0.0
        return max(
            self.config.batch_window_s
            - (time.monotonic() - self._batch_last_arrival),
            0.0,
        )

    # -- command handling --------------------------------------------------------------

    def _handle_submission(self, command: _Command) -> None:
        try:
            key = command.key
            if key is not None and key in self._idempotency:
                # Client retry of an already-accepted submission (e.g. the
                # answer was lost to a crash or connection reset): return
                # the original decision; never double-admit.  The original
                # request id is kept — that is the id the trace events
                # carry, so it is the one worth querying.
                self.obs.counter("service.idempotent.hits").inc()
                command.future.set_result(self._idempotency[key])
                return
            # Everything this submission triggers on the loop thread —
            # admission events, journal spans, the registration itself —
            # is stamped with its request id.
            with use_request_id(command.request_id):
                if command.kind == "workflow":
                    result = self._admit_workflow(
                        command.payload, key, request_id=command.request_id
                    )
                elif command.kind == "adhoc":
                    result = self._enqueue_adhoc(
                        command.payload, key, request_id=command.request_id
                    )
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown command {command.kind!r}")
            result = replace(result, request_id=command.request_id or "")
            if key is not None and result.accepted:
                # Only accepted decisions are pinned: a rejection (full
                # queue, infeasible now) may legitimately succeed on retry.
                self._idempotency[key] = result
                self._idempotency_by_id[result.id] = key
            # Publish the new counts before resolving the future, so a
            # client that saw its decision also sees it in /status.
            self._refresh_status()
            command.future.set_result(result)
        except Exception as error:  # surfaced to the submitting thread
            command.future.set_exception(error)

    def _planner_config(self) -> PlannerConfig:
        planner = getattr(self.scheduler, "planner", None)
        config = getattr(planner, "config", None)
        return config if isinstance(config, PlannerConfig) else PlannerConfig()

    def _committed_demands(self) -> list[JobDemand]:
        """Remaining demands of every admitted, unfinished deadline job.

        Built from the engine's registered runs (not the slot view) so
        workflows admitted seconds ago but starting in the future already
        count against headroom.
        """
        demands = []
        for run in self._core.job_runs():
            job = run.job
            if job.kind is not JobKind.DEADLINE or run.done:
                continue
            window = self._windows.get(job.job_id)
            if window is None:  # defensive: admitted => decomposed
                continue
            units = run.believed_remaining_units()
            if units <= 0:
                continue
            demands.append(
                JobDemand(
                    job_id=job.job_id,
                    release_slot=window.release_slot,
                    deadline_slot=window.deadline_slot,
                    units=units,
                    unit_demand=job.tasks.demand,
                    max_parallel=job.tasks.count,
                )
            )
        return demands

    def _admit_workflow(
        self,
        workflow: Workflow,
        key: str | None = None,
        *,
        request_id: str | None = None,
    ) -> SubmitResult:
        core = self._core
        obs = self.obs
        if self._draining:
            return self._reject_workflow(workflow, "draining")
        if workflow.workflow_id in core.workflows:
            return self._reject_workflow(workflow, "invalid")
        try:
            for job in workflow.jobs:
                if core.has_job(job.job_id):
                    raise ValueError(f"duplicate job id {job.job_id}")
                core.validate_job(job)
        except ValueError:
            return self._reject_workflow(workflow, "invalid")

        utilisation = float("nan")
        cluster_aware = self.config.cluster_aware_decomposition
        if self.config.admission:
            try:
                decision = check_admission(
                    workflow,
                    self._committed_demands(),
                    self.cluster,
                    now_slot=core.slot,
                    config=self._planner_config(),
                    cluster_aware=cluster_aware,
                )
            except SolverFailure:
                # The admission LP itself failed — a transient solver
                # condition, not a verdict on the workflow.  Answer
                # "unavailable" (HTTP 503, retryable), never a silent
                # admit that skipped the feasibility proof.
                obs.counter("service.submit.workflow.unavailable").inc()
                return SubmitResult(
                    accepted=False,
                    kind="workflow",
                    id=workflow.workflow_id,
                    reason="unavailable",
                    queue_depth=core.live_adhoc_count(),
                )
            utilisation = decision.utilisation
            if not decision.admit:
                self._rejected_workflows += 1
                obs.counter("service.submit.workflow.rejected").inc()
                return SubmitResult(
                    accepted=False,
                    kind="workflow",
                    id=workflow.workflow_id,
                    reason="infeasible",
                    utilisation=decision.utilisation,
                    shortfall_units=dict(decision.shortfall_units),
                    queue_depth=core.live_adhoc_count(),
                )
            # Commit exactly the windows the check proved feasible.
            windows = decision.windows
        else:
            windows = decompose_deadline(
                workflow, self.cluster, cluster_aware=cluster_aware
            ).windows
        self._windows.update(windows)
        # The engine executes the (possibly error-perturbed) true structure;
        # the journal records the *original* submission — replay re-derives
        # the same perturbation from the id-keyed seed.
        core.add_workflow(
            self._perturb_workflow(workflow), request_id=request_id
        )
        if self._journal is not None:
            self._journal.append_workflow(workflow, key=key)
        self._accepted_workflows += 1
        self._note_arrival()
        obs.counter("service.submit.workflow.accepted").inc()
        return SubmitResult(
            accepted=True,
            kind="workflow",
            id=workflow.workflow_id,
            reason="admitted",
            utilisation=utilisation,
            queue_depth=core.live_adhoc_count(),
        )

    def _reject_workflow(self, workflow: Workflow, reason: str) -> SubmitResult:
        self._rejected_workflows += 1
        self.obs.counter("service.submit.workflow.rejected").inc()
        return SubmitResult(
            accepted=False,
            kind="workflow",
            id=workflow.workflow_id,
            reason=reason,
            queue_depth=self._core.live_adhoc_count(),
        )

    def _enqueue_adhoc(
        self,
        job: Job,
        key: str | None = None,
        *,
        request_id: str | None = None,
    ) -> SubmitResult:
        core = self._core
        obs = self.obs
        depth = core.live_adhoc_count()
        if self._draining:
            reason = "draining"
        elif core.has_job(job.job_id):
            reason = "invalid"
        elif depth >= self.config.adhoc_queue_limit:
            # Backpressure: shed instead of growing the queue unboundedly.
            self._shed_adhoc += 1
            obs.counter("service.queue.shed").inc()
            reason = "queue_full"
        else:
            try:
                core.add_adhoc(self._perturb_adhoc(job), request_id=request_id)
            except ValueError:
                reason = "invalid"
            else:
                if self._journal is not None:
                    self._journal.append_adhoc(job, key=key)
                self._accepted_adhoc += 1
                self._note_arrival()
                obs.counter("service.submit.adhoc.accepted").inc()
                depth += 1
                obs.gauge("service.queue.depth").set(depth)
                return SubmitResult(
                    accepted=True,
                    kind="adhoc",
                    id=job.job_id,
                    reason="queued",
                    queue_depth=depth,
                )
        if reason != "queue_full":
            obs.counter("service.submit.adhoc.rejected").inc()
        return SubmitResult(
            accepted=False,
            kind="adhoc",
            id=job.job_id,
            reason=reason,
            queue_depth=depth,
        )

    # -- migration API (docs/SHARDING.md) ---------------------------------------------
    #
    # All mutators run as closures on the event-loop thread (the same
    # single-writer discipline as submissions), so a migration can never
    # race an admission against the same headroom.  Reads that only touch
    # a dict snapshot (owns_workflow, workflow_ids, orphan_info) go direct.

    def _call(self, fn, timeout: float | None = None):
        """Run *fn* on the event-loop thread; return (or raise) its result."""
        if self._stopped.is_set():
            raise RuntimeError("service is stopped")
        command = _Command("call", fn)
        self._commands.put(command)
        return command.future.result(
            timeout=timeout if timeout is not None else self.config.submit_timeout_s
        )

    def _handle_call(self, command: _Command) -> None:
        try:
            command.future.set_result(command.payload())
        except Exception as error:  # surfaced to the calling thread
            command.future.set_exception(error)

    def migrate_out(
        self, workflow_id: str, *, dest: str, epoch: int,
        timeout: float | None = None,
    ) -> dict:
        """Withdraw a not-yet-started workflow for handoff to shard *dest*.

        Journals a ``migrate_out`` tombstone (entity + idempotency key
        embedded) before answering, and tracks the handoff as an orphan
        until :meth:`confirm_migration` or :meth:`restore_workflow`
        settles it.  Returns ``{"workflow", "key", "epoch"}``.  Raises
        ``ValueError`` when the workflow is unknown or already started.
        """
        return self._call(
            lambda: self._migrate_out(workflow_id, dest, epoch), timeout
        )

    def _migrate_out(self, workflow_id: str, dest: str, epoch: int) -> dict:
        workflow = self._core.remove_workflow(workflow_id)
        for job in workflow.jobs:
            self._windows.pop(job.job_id, None)
        key = self._idempotency_by_id.get(workflow_id)
        if self._journal is not None:
            self._journal.append_migrate_out(
                workflow, dest=dest, epoch=epoch, key=key
            )
        self._orphans[workflow_id] = {
            "workflow": workflow, "key": key, "dest": dest, "epoch": epoch,
        }
        if epoch > self._migration_epochs.get(workflow_id, 0):
            self._migration_epochs[workflow_id] = epoch
        self.obs.counter("service.migrate.out").inc()
        self._refresh_status()
        return {"workflow": workflow, "key": key, "epoch": epoch}

    def migrate_in(
        self, workflow: Workflow, *, key: str | None = None, epoch: int = 0,
        timeout: float | None = None,
    ) -> SubmitResult:
        """Accept a workflow handed off by another shard.

        Admission *is* re-run against this shard's capacity slice (the
        move must not overload the destination); on accept the workflow is
        journaled here like any submission and the idempotency key is
        pinned, so the key keeps deduplicating on its new home shard.
        Idempotent on an already-owned workflow id (a re-delivered handoff
        answers accepted without a second admission).  A handoff whose
        epoch is below this shard's recorded watermark for the workflow
        is rejected with ``stale_epoch`` — it is a replay of a migration
        that a newer one (rebalance or failover) has already superseded.
        """
        return self._call(lambda: self._migrate_in(workflow, key, epoch), timeout)

    def _migrate_in(
        self, workflow: Workflow, key: str | None, epoch: int
    ) -> SubmitResult:
        if workflow.workflow_id in self._core.workflows:
            result = SubmitResult(
                accepted=True,
                kind="workflow",
                id=workflow.workflow_id,
                reason="admitted",
            )
        elif epoch and epoch < self._migration_epochs.get(
            workflow.workflow_id, 0
        ):
            self.obs.counter("service.migrate.stale_epoch").inc()
            return SubmitResult(
                accepted=False,
                kind="workflow",
                id=workflow.workflow_id,
                reason="stale_epoch",
            )
        else:
            # Migration moves an already-counted submission between
            # shards; the per-shard accept/reject submission counters must
            # not drift (the router's aggregate would double-count), so
            # they are restored around the admission call.
            counts = (self._accepted_workflows, self._rejected_workflows)
            result = self._admit_workflow(workflow, key)
            self._accepted_workflows, self._rejected_workflows = counts
        if result.accepted:
            if key is not None:
                self._idempotency[key] = result
                self._idempotency_by_id[workflow.workflow_id] = key
            if epoch > self._migration_epochs.get(workflow.workflow_id, 0):
                self._migration_epochs[workflow.workflow_id] = epoch
            self.obs.counter("service.migrate.in").inc()
        self._refresh_status()
        return result

    def restore_workflow(
        self, workflow: Workflow, *, key: str | None = None,
        timeout: float | None = None,
    ) -> SubmitResult:
        """Re-admit a workflow whose outbound handoff failed.

        Admission is *not* re-run: the workflow was accepted on this shard
        before the attempted move — accepted stays accepted.  Journals a
        plain ``workflow`` record (which supersedes the tombstone in the
        ordered fold) and clears the orphan entry.
        """
        return self._call(lambda: self._restore_workflow(workflow, key), timeout)

    def _restore_workflow(
        self, workflow: Workflow, key: str | None
    ) -> SubmitResult:
        wid = workflow.workflow_id
        if wid not in self._core.workflows:
            decomposition = decompose_deadline(
                workflow,
                self.cluster,
                cluster_aware=self.config.cluster_aware_decomposition,
            )
            self._core.add_workflow(self._perturb_workflow(workflow))
            self._windows.update(decomposition.windows)
            if self._journal is not None:
                self._journal.append_workflow(workflow, key=key)
            self._note_arrival()
        self._orphans.pop(wid, None)
        result = SubmitResult(
            accepted=True, kind="workflow", id=wid, reason="admitted"
        )
        if key is not None:
            self._idempotency[key] = result
            self._idempotency_by_id[wid] = key
        self.obs.counter("service.migrate.restored").inc()
        self._refresh_status()
        return result

    def restore_orphan(
        self, workflow_id: str, timeout: float | None = None
    ) -> SubmitResult:
        """Restore an orphaned handoff from its journaled tombstone."""
        def run() -> SubmitResult:
            orphan = self._orphans.get(workflow_id)
            if orphan is None:
                raise ValueError(f"no orphaned migration for {workflow_id}")
            return self._restore_workflow(orphan["workflow"], orphan["key"])

        return self._call(run, timeout)

    def confirm_migration(
        self, workflow_id: str, *, epoch: int, timeout: float | None = None
    ) -> dict:
        """Settle an outbound handoff: the destination durably owns it."""
        return self._call(
            lambda: self._confirm_migration(workflow_id, epoch), timeout
        )

    def _confirm_migration(self, workflow_id: str, epoch: int) -> dict:
        was_orphan = self._orphans.pop(workflow_id, None) is not None
        if epoch > self._migration_epochs.get(workflow_id, 0):
            self._migration_epochs[workflow_id] = epoch
        if self._journal is not None:
            self._journal.append_migrate_confirm(workflow_id, epoch=epoch)
        self.obs.counter("service.migrate.confirmed").inc()
        return {
            "workflow_id": workflow_id, "epoch": epoch, "was_orphan": was_orphan,
        }

    def owns_workflow(self, workflow_id: str) -> bool:
        """True when this shard's engine currently owns the workflow."""
        return workflow_id in self._core.workflows

    def workflow_ids(self) -> list[str]:
        """Ids of every workflow this shard currently owns (snapshot)."""
        return self._core.workflow_ids()

    def orphan_info(self) -> dict[str, dict]:
        """Unsettled outbound handoffs: id -> {dest, epoch} (snapshot)."""
        return {
            wid: {"dest": info["dest"], "epoch": info["epoch"]}
            for wid, info in dict(self._orphans).items()
        }

    def demand_skyline(self, timeout: float | None = None) -> dict:
        """Committed-demand saturation summary (the rebalancer's signal).

        The committed units of every admitted, unfinished deadline job are
        compared against this shard's capacity over the remaining horizon
        (now to the latest committed deadline); ``saturation`` is the worst
        per-resource fraction.  Computed on the loop thread for a
        consistent snapshot.
        """
        return self._call(self._demand_skyline, timeout)

    def _demand_skyline(self) -> dict:
        core = self._core
        now = core.slot
        demands = self._committed_demands()
        horizon = max(
            max((d.deadline_slot for d in demands), default=now + 1) - now, 1
        )
        base = self.cluster.base
        per_resource: dict[str, float] = {}
        for resource in self.cluster.resources:
            cap = base[resource] * horizon
            load = float(
                sum(d.units * d.unit_demand[resource] for d in demands)
            )
            per_resource[resource] = load / cap if cap else 0.0
        saturation = max(per_resource.values(), default=0.0)
        return {
            "slot": now,
            "n_workflows": len(core.workflows),
            "committed_units": int(sum(d.units for d in demands)),
            "horizon_slots": horizon,
            "queue_depth": core.live_adhoc_count(),
            "per_resource": per_resource,
            "saturation": saturation,
        }

    def migration_candidates(
        self, max_n: int = 8, timeout: float | None = None
    ) -> list[dict]:
        """Not-yet-started workflows this shard could hand off.

        Least-urgent first (latest deadline): those have the most slack to
        survive a re-admission on the destination.  Each entry carries the
        remaining units so the rebalancer can size its moves.
        """
        return self._call(lambda: self._migration_candidates(max_n), timeout)

    def _migration_candidates(self, max_n: int) -> list[dict]:
        core = self._core
        candidates = []
        for wid, workflow in core.workflows.items():
            if core.workflow_started(wid):
                continue
            units = sum(job.tasks.total_task_slots for job in workflow.jobs)
            candidates.append(
                {
                    "workflow_id": wid,
                    "units": int(units),
                    "deadline_slot": workflow.deadline_slot,
                }
            )
        candidates.sort(key=lambda c: (-c["deadline_slot"], c["workflow_id"]))
        return candidates[:max_n]

    # -- stepping -------------------------------------------------------------------

    def _step(self) -> None:
        outcome = self._core.step()
        arrivals = outcome.n_workflow_arrivals
        if arrivals:
            # The coalescing factor of this re-plan: how many workflow
            # submissions one WORKFLOW_ARRIVED batch (= one LP ladder) paid
            # for.  p50 > 1 under bursts is the batching win.
            self.obs.histogram("service.replan.batch_size").observe(arrivals)
        self.obs.gauge("service.queue.depth").set(self._core.live_adhoc_count())

    def _drain_out(self, command: _Command) -> None:
        """Finish every in-flight job, then resolve the drain future."""
        core = self._core
        self.obs.event("service_drain_start", slot=core.slot)
        self._refresh_status()
        deadline_slot = core.slot + self.config.drain_max_slots
        # The run-out is unpaced under ``realtime`` too, so it jumps idle
        # gaps either way — never past the drain deadline.
        while not core.finished and core.slot < deadline_slot:
            if not core.skip_idle(deadline_slot):
                self._step()
        core.flush_pending_events()
        core.finalize_metrics()
        finished = core.finished
        core.emit_run_end(finished)
        self.obs.sink.flush()
        self._result = core.result(finished)
        self._refresh_status()
        command.future.set_result(self._result)

    # -- bookkeeping --------------------------------------------------------------------

    def _make_status(self, running: bool, draining: bool) -> ServiceStatus:
        core = self._core
        return ServiceStatus(
            running=running,
            draining=draining,
            slot=core.slot,
            scheduler=getattr(self.scheduler, "name", ""),
            n_workflows=len(core.workflows),
            n_jobs=core.n_jobs,
            remaining_jobs=core.remaining_jobs,
            queue_depth=core.live_adhoc_count(),
            accepted_workflows=self._accepted_workflows,
            rejected_workflows=self._rejected_workflows,
            accepted_adhoc=self._accepted_adhoc,
            shed_adhoc=self._shed_adhoc,
            replans=getattr(self.scheduler, "replans", 0),
        )

    def _refresh_status(self) -> None:
        status = self._make_status(
            running=not self._stopped.is_set(), draining=self._draining
        )
        with self._lock:
            self._status = status

    def _finish(self) -> None:
        self._stopped.set()
        self._draining = True
        # Unblock any submitter still waiting: the service is gone.
        while True:
            command = self._poll_command()
            if command is None:
                break
            if not command.future.done():
                if command.kind in ("workflow", "adhoc"):
                    payload_id = getattr(
                        command.payload, "workflow_id", None
                    ) or getattr(command.payload, "job_id", "")
                    command.future.set_result(
                        SubmitResult(
                            accepted=False,
                            kind=command.kind,
                            id=payload_id,
                            reason="draining",
                        )
                    )
                elif command.kind == "kill":
                    command.future.set_result(None)
                else:
                    command.future.set_exception(
                        RuntimeError("service stopped before drain completed")
                    )
        if self._journal is not None:
            self._journal.close()
        self._refresh_status()
        self.obs.event(
            "service_stop", slot=self._core.slot, killed=self._killed.is_set()
        )
