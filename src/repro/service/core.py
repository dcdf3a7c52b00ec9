"""The long-running scheduler service: submissions in, plans out.

FlowTime is an *online* system — workflows and ad-hoc jobs arrive
dynamically and the scheduler re-plans on each arrival (Sec. III/V) — but
the batch :class:`~repro.simulator.engine.Simulation` can only replay a
canned trace.  :class:`SchedulerService` is the serving path: a single
event-loop thread owns the clock and the scheduler, and a thread-safe
submission API feeds it while it runs.

Design points:

* **A shell around a value.**  What the service *decides* — admission,
  the ad-hoc queue, idempotent retries, the journal and its recovery, the
  shard-migration protocol — is :class:`~repro.service.state.ServiceState`:
  the engine core plus the ledger, with no thread, queue or wall clock.
  This module is the shell: the thread, the command queue and its
  futures, the batch window and slot pacing, drain/kill, the status
  snapshot and the windowed submit metrics.
* **One writer.**  The state is touched only by the event loop;
  submissions and lifecycle transitions travel through a command queue
  and get their answers via futures.  Admission decisions are therefore
  strictly serialised — two racing submissions can never both be admitted
  against the same headroom.
* **Batched re-planning.**  Submissions are injected into the engine the
  moment their command is processed, but the (virtual) clock is held open
  for ``batch_window_s`` after each arrival, so a burst of N submissions
  lands in a single slot — one ``WORKFLOW_ARRIVED`` batch, one LP ladder,
  not N.  The per-replan coalescing factor is recorded in the
  ``service.replan.batch_size`` histogram.
* **Graceful drain.**  ``drain()`` stops admitting, finishes every
  in-flight job (running the clock out virtually), flushes the trace sink,
  and returns the run's :class:`~repro.simulator.result.SimulationResult`
  — the same object a batch run produces, so outcome equivalence is
  directly checkable.  ``kill()`` simulates a crash instead (no drain, no
  flush) for chaos testing the journal recovery, and ``restart()`` brings
  the dead service back on its journal with its trace and metrics intact.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Optional

from repro.model.cluster import ClusterCapacity
from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.obs import (
    Observability,
    SLOTracker,
    json_safe,
    new_request_id,
    use_obs,
)
from repro.schedulers.base import Scheduler
from repro.service.api import (
    SUBMIT_TIMEOUT_S,
    ServiceConfig,
    ServiceSaturatedError,
    ServiceStatus,
    SubmitResult,
)
from repro.service.state import ServiceState
from repro.simulator.result import SimulationResult

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
    """One queued instruction for the event loop: ``run`` is called there
    and its outcome resolves ``future``."""

    __slots__ = ("kind", "run", "entity_id", "future")

    def __init__(self, kind: str, run=None, entity_id: str = ""):
        self.kind = kind  # "workflow" | "adhoc" | "call"
        self.run = run
        self.entity_id = entity_id  # submissions: what _finish answers for
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
    It is also the in-process shard a
    :class:`~repro.cluster.router.ShardRouter` drives: its method names are
    :class:`~repro.cluster.shards.RemoteShard`'s, and ``name`` is the
    shard name the router stamps on its answers.
    """

    def __init__(
        self,
        cluster: ClusterCapacity,
        config: ServiceConfig | None = None,
        *,
        scheduler: Scheduler | None = None,
        obs: Observability | None = None,
        name: str = "",
    ):
        self.name = name
        self.cluster = cluster
        self._lock = threading.Lock()
        self._begin_life(
            ServiceState(cluster, config, scheduler=scheduler, obs=obs)
        )
        # What outlives a restart: the observability handle (registry and
        # trace sink), the rolling service-path metrics (bounded memory;
        # see repro.obs.windowed) and the SLO tracker reading the engine's
        # slo.* feed metrics.
        self.obs = self.state.obs
        self._submit_requests = self.obs.windowed_counter(
            "service.submit.requests"
        )
        self._submit_latency = self.obs.windowed_histogram(
            "service.submit.seconds"
        )
        self._slo = SLOTracker(self.obs.registry, self.config.slo)

    def _begin_life(self, state: ServiceState) -> None:
        """Bind one life of the service: its state, its command queue and
        loop thread, its lifecycle flags and its batch window."""
        self.state = state
        self.config = state.config
        self.scheduler = state.scheduler
        self._core = state.core
        self._commands: "queue.Queue[_Command]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._killed = threading.Event()
        self._result: Optional[SimulationResult] = None
        self._batch_open_since: Optional[float] = None
        self._batch_last_arrival = 0.0
        self._arrivals_seen = state.arrivals
        self._status = state.status(running=False)

    @property
    def journal_path(self) -> str | None:
        """Where the write-ahead journal lives (None when unjournaled); the
        supervisor reads it to fail over a shard that stays dead."""
        return self.config.journal_path

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
        command = _Command("call", self._drain_out)
        self._commands.put(command)
        result = command.future.result(timeout=timeout)
        self._thread.join(timeout=timeout)
        return result

    def kill(self, timeout: float | None = None) -> None:
        """Simulate a crash (SIGKILL semantics): stop without draining.

        The event loop exits at the next opportunity — no drain, no final
        result, in-flight work abandoned mid-slot.  Exists for chaos
        testing the journal recovery path: everything a client was told
        was accepted is already fsync'd, so a new service started on the
        same ``journal_path`` must recover all of it.
        """
        self._killed.set()
        if self._thread is not None and self._thread.is_alive():
            # Unblock a loop parked on the command queue so death is prompt.
            self._commands.put(_Command("call", lambda: None))
            self._thread.join(timeout=timeout)

    def restart(self) -> "SchedulerService":
        """Bring a dead service back on the same config, exactly as a
        restarted process would: a fresh :class:`ServiceState` replays the
        journal (accepted work and unsettled handoff tombstones come
        back), with the scheduler built from ``config.scheduler``.  The
        observability handle, the windowed submit metrics and the SLO
        tracker carry over, so the trace and the metrics continue across
        the restart.  Raises :class:`RuntimeError` while the loop lives:
        two loops must never write one journal."""
        if self.alive():
            raise RuntimeError("service is running; kill or drain it first")
        self.state.close()
        self._begin_life(ServiceState(self.cluster, self.config, obs=self.obs))
        return self.start()

    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def draining(self) -> bool:
        return self.state.draining

    def result(self) -> SimulationResult:
        """The final result (only after :meth:`drain`)."""
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
            "workflow", workflow, workflow.workflow_id,
            idempotency_key, request_id, wait,
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
            "adhoc", job, job.job_id, idempotency_key, request_id, wait
        )

    def _submit(
        self, kind: str, entity, entity_id: str, key, request_id, wait: bool
    ) -> "SubmitResult | Future":
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
        # The submitting thread's context dies with the HTTP response, so
        # the correlation id rides the command onto the loop thread.
        request_id = request_id or new_request_id()
        command = _Command(
            kind,
            lambda: self.state.submit(kind, entity, key, request_id),
            entity_id,
        )
        start = time.perf_counter()
        # Admission latency, enqueue -> decision, whether the submitter
        # blocks below or awaits the future.
        command.future.add_done_callback(
            lambda _: self._submit_latency.observe(time.perf_counter() - start)
        )
        self._commands.put(command)
        if not wait:
            return command.future
        return command.future.result(timeout=SUBMIT_TIMEOUT_S)

    # -- query API ---------------------------------------------------------------------

    def status(self) -> ServiceStatus:
        """A consistent snapshot of externally visible state."""
        with self._lock:
            return self._status

    def plan(self) -> dict:
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

    def metrics(self) -> dict:
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

    def slo(self) -> dict:
        """SLO status (error budget, burn rate, decide p99) as a JSON dict."""
        return json_safe(self._slo.snapshot())

    def queue_depth(self) -> int:
        """Ad-hoc jobs waiting or running (the router's spill signal)."""
        return self.status().queue_depth

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
        state = self.state
        config = self.config
        self._refresh_status()
        next_tick = time.monotonic() + config.slot_seconds
        while True:
            command = self._next_command(next_tick)
            while command is not None:
                self._handle(command)
                if self._result is not None or self._killed.is_set():
                    return  # drained, or crash simulation (nothing flushed)
                command = self._poll_command()
            if self._killed.is_set():
                return
            now = time.monotonic()
            if config.realtime:
                # Wall-clock pacing owns the mapping of slots to seconds:
                # one slot per tick, idle or not, never a jump.
                while now >= next_tick:
                    state.step()
                    next_tick += config.slot_seconds
            elif not self._core.finished and not self._batch_hold(now):
                # The engine's horizon caps the jump, so a far-future
                # arrival slot from a client cannot make one call allocate
                # that many rows; past it the clock just steps.
                state.advance(self._core.config.max_slots)
            self._refresh_status()

    def _next_command(self, next_tick: float) -> Optional[_Command]:
        """Fetch the next command, blocking only when there is nothing to do."""
        finished = self._core.finished
        now = time.monotonic()
        if self.config.realtime:
            timeout = max(next_tick - now, 0.0)
            timeout = min(timeout, _IDLE_POLL_S if finished else timeout)
        elif hold := self._batch_hold(now):
            timeout = min(hold, _IDLE_POLL_S)
        elif finished:
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

    def _batch_hold(self, now: float) -> float:
        """Seconds the batch window still holds the (virtual) clock open:
        ``batch_window_s`` past the last arrival, capped so a continuous
        stream never starves the clock.  0.0 once it has closed."""
        window = self.config.batch_window_s
        if self._batch_open_since is None or window <= 0:
            return 0.0
        closes = min(
            self._batch_last_arrival + window,
            self._batch_open_since + window * _BATCH_CAP_FACTOR,
        )
        if now >= closes:
            self._batch_open_since = None
            return 0.0
        return closes - now

    # -- command handling --------------------------------------------------------------

    def _handle(self, command: _Command) -> None:
        """Run one submission or state call on the loop thread."""
        state = self.state
        try:
            result = command.run()
            if state.arrivals != self._arrivals_seen:
                # Something was committed: (re)open the batch window.
                self._arrivals_seen = state.arrivals
                now = time.monotonic()
                if self._batch_open_since is None:
                    self._batch_open_since = now
                self._batch_last_arrival = now
            # Publish the new counts before resolving the future, so a
            # client that saw its decision also sees it in /status.
            self._refresh_status()
            command.future.set_result(result)
        except Exception as error:  # surfaced to the waiting thread
            command.future.set_exception(error)

    def _call(self, fn, timeout: float | None = None):
        """Run *fn* on the event-loop thread; return (or raise) its result."""
        if self._stopped.is_set():
            raise RuntimeError("service is stopped")
        command = _Command("call", fn)
        self._commands.put(command)
        return command.future.result(
            timeout=timeout if timeout is not None else SUBMIT_TIMEOUT_S
        )

    # -- migration API (docs/SHARDING.md) ---------------------------------------------
    #
    # Each call runs the :class:`ServiceState` transition of the same
    # meaning as a closure on the event-loop thread (the same single-writer
    # discipline as submissions), so a migration can never race an
    # admission against the same headroom; the protocol is documented
    # there.  Reads that only touch a dict snapshot (owns,
    # workflow_ids, orphans) go direct.

    def migrate_out(
        self, workflow_id: str, *, dest: str, epoch: int,
        timeout: float | None = None,
    ) -> dict:
        """Withdraw a not-yet-started workflow for handoff to shard *dest*
        (``{"workflow", "key", "epoch"}``; ``ValueError`` if unknown or
        started)."""
        return self._call(
            lambda: self.state.migrate_out(workflow_id, dest, epoch), timeout
        )

    def migrate_in(
        self, workflow: Workflow, *, key: str | None = None, epoch: int = 0,
        timeout: float | None = None,
    ) -> SubmitResult:
        """Accept (after re-running admission) a workflow handed off by
        another shard."""
        return self._call(
            lambda: self.state.migrate_in(workflow, key, epoch), timeout
        )

    def restore(
        self, workflow: Workflow, *, key: str | None = None,
        timeout: float | None = None,
    ) -> SubmitResult:
        """Re-admit, without an admission check, a workflow whose outbound
        handoff failed."""
        return self._call(lambda: self.state.restore(workflow, key), timeout)

    def restore_orphan(
        self, workflow_id: str, timeout: float | None = None
    ) -> SubmitResult:
        """Restore an orphaned handoff from its journaled tombstone."""
        return self._call(lambda: self.state.restore_orphan(workflow_id), timeout)

    def confirm(
        self, workflow_id: str, *, epoch: int, timeout: float | None = None
    ) -> dict:
        """Settle an outbound handoff: the destination durably owns it."""
        return self._call(lambda: self.state.confirm(workflow_id, epoch), timeout)

    def owns(self, workflow_id: str) -> bool:
        """True when this shard's engine currently owns the workflow."""
        return workflow_id in self._core.workflows

    def workflow_ids(self) -> list[str]:
        """Ids of every workflow this shard currently owns (snapshot)."""
        return self._core.workflow_ids()

    def orphans(self) -> dict[str, dict]:
        """Unsettled outbound handoffs: id -> {dest, epoch} (snapshot)."""
        return self.state.orphan_info()

    def skyline(self, timeout: float | None = None) -> dict:
        """Committed-demand saturation summary (the rebalancer's signal),
        computed on the loop thread for a consistent snapshot."""
        return self._call(self.state.skyline, timeout)

    def candidates(
        self, max_n: int = 8, timeout: float | None = None
    ) -> list[dict]:
        """Not-yet-started workflows this shard could hand off."""
        return self._call(lambda: self.state.migration_candidates(max_n), timeout)

    # -- bookkeeping --------------------------------------------------------------------

    def _drain_out(self) -> SimulationResult:
        """Stop admitting and finish every in-flight job (on the loop)."""
        self.state.draining = True
        self._refresh_status()
        self._result = self.state.run_out()
        return self._result

    def _refresh_status(self) -> None:
        status = self.state.status(running=not self._stopped.is_set())
        with self._lock:
            self._status = status

    def _finish(self) -> None:
        self._stopped.set()
        self.state.draining = True
        # Unblock any submitter still waiting: the service is gone.
        while True:
            command = self._poll_command()
            if command is None:
                break
            if not command.future.done():
                if command.kind in ("workflow", "adhoc"):
                    command.future.set_result(
                        SubmitResult(
                            accepted=False,
                            kind=command.kind,
                            id=command.entity_id,
                            reason="draining",
                        )
                    )
                else:
                    command.future.set_exception(
                        RuntimeError("service stopped before drain completed")
                    )
        self.state.close()
        self._refresh_status()
        self.obs.event(
            "service_stop", slot=self._core.slot, killed=self._killed.is_set()
        )
