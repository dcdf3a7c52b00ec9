"""The scheduler service as a value: the engine core plus its ledger.

In ``repro serve`` FlowTime's promise — an admitted deadline workflow
finishes inside its decomposed windows — *is* a ledger: the workflows this
shard owns, the windows admission proved for them, the idempotency keys
that already have a decision, the handoffs to other shards still
unsettled, and the migration-epoch fence.  :class:`ServiceState` holds it
next to the :class:`~repro.simulator.runtime.EngineCore` it commits into;
every transition is a plain synchronous method — no thread, queue or wall
clock (:class:`~repro.service.core.SchedulerService` is the shell that
adds those; tests drive this class directly).

* **Admission + backpressure.**  Deadline workflows pass the exact
  admission check (:func:`repro.core.admission.check_admission`) at
  submission; ad-hoc jobs enter a bounded queue and are shed once
  ``adhoc_queue_limit`` are outstanding (``service.queue.depth`` gauge,
  ``service.queue.shed`` counter).
* **Crash safety.**  With ``journal_path`` set, every accepted submission
  is fsync'd to a write-ahead JSONL journal *before* its decision is
  returned, and a new state on that journal recovers the ledger: accepted
  work (admission is not re-run — accepted stays accepted), every key (a
  client that never saw its pre-crash answer can retry it), unsettled
  handoffs and the epoch fence.
* **One writer per journaled fact.**  A workflow becomes owned in one
  place (:meth:`ServiceState._commit_workflow`) whoever asks — admission,
  a handoff landing, a restore, recovery; likewise an ad-hoc job, a key
  pin, a watermark raise.  What a *sequence* of records means is
  :func:`repro.service.journal.fold`, read by recovery and by the
  supervisor's failover alike.  So a recovered state equals the state
  that wrote the journal (execution progress and reject counts aside).
"""

from __future__ import annotations

import zlib

from repro.core.admission import check_admission
from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.core.placement import DemandTable, JobDemand, PlannerConfig, caps_array, demand_row
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
    current_request_id,
    use_obs,
    use_request_id,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.service.api import ServiceConfig, ServiceStatus, SubmitResult
from repro.service.journal import JournalRecord, SubmissionJournal, fold
from repro.simulator.engine import SimulationConfig
from repro.simulator.result import SimulationResult
from repro.simulator.runtime import make_engine_core

__all__ = ["ServiceState"]

#: Hard stop for the graceful-drain run-out, in slots; a drain not finished
#: by then reports ``finished=False``.
_DRAIN_MAX_SLOTS = 50_000


def _answer(
    accepted: bool, kind: str, entity_id: str, reason: str, **detail
) -> SubmitResult:
    """A decision stamped with the ambient request id (none outside a
    client submission: handoffs, restores, journal replay)."""
    return SubmitResult(
        accepted=accepted,
        kind=kind,
        id=entity_id,
        reason=reason,
        request_id=current_request_id() or "",
        **detail,
    )


def _accepted(kind: str, entity_id: str, **detail) -> SubmitResult:
    reason = "admitted" if kind == "workflow" else "queued"
    return _answer(True, kind, entity_id, reason, **detail)


class ServiceState:
    """One shard's engine and ledger.  Not thread-safe: the caller
    serialises (the shell's loop thread, or a single-threaded test).  With
    ``config.journal_path`` set the constructor recovers the ledger from
    that journal, then opens it for appending.
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
        self.config = config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability()
        if scheduler is None:
            scheduler = make_scheduler(config.scheduler, **config.scheduler_kwargs)
        self.scheduler = scheduler
        self.core = make_engine_core(
            cluster,
            scheduler,
            SimulationConfig(
                slot_seconds=config.slot_seconds,
                record_execution=config.record_execution,
                failures=config.failures,
            ),
            self.obs,
        )
        self.draining = False  # set by the shell: nothing more is admitted
        self.arrivals = 0  # entities committed (the shell's batch window)
        # Decomposed windows of every owned workflow's jobs; the
        # admission check's view of already-committed deadline work.
        self.windows: dict[str, JobWindow] = {}
        # The committed, incomplete deadline jobs as the kernel's columns.  A
        # commit appends its rows; a step or a withdrawal marks it stale
        # (None) and the next reader rebuilds it (:meth:`committed_table`).
        self._table: DemandTable | None = None
        # Decisions of accepted keyed submissions: a retried key returns
        # its original decision instead of double-admitting — also after
        # the workflow was handed off, and after a restart.
        self.keys: dict[str, SubmitResult] = {}
        # Entity id -> latest key: a migrating workflow carries its key.
        self._key_of: dict[str, str] = {}
        # Unsettled outbound handoffs: workflow id -> ``migrate_out``
        # tombstone, until confirm/restore.  Owned by nobody until the
        # coordinator reconciles — held, never unilaterally re-admitted.
        self.orphans: dict[str, JournalRecord] = {}
        # Highest migration epoch seen per workflow id: ``migrate_in``
        # rejects handoffs below it (``stale_epoch``), so a replayed old
        # handoff cannot re-land a workflow a newer migration moved on.
        self.epochs: dict[str, int] = {}
        # What /status counts: client submissions by outcome (recovered
        # accepts count again; handoffs between shards never do).
        self.accepted_workflows = 0
        self.rejected_workflows = 0
        self.accepted_adhoc = 0
        self.shed_adhoc = 0
        self.journal: SubmissionJournal | None = None
        if config.journal_path:
            with use_obs(self.obs):
                self.recover(config.journal_path)
            self.journal = SubmissionJournal(
                config.journal_path, fsync=config.journal_fsync
            )

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- the single writers -----------------------------------------------------------

    @property
    def cluster_aware(self) -> bool:
        """The scheduler's own decomposition setting: the windows admission
        proves, the ledger commits and the planner plans are one."""
        return getattr(self.scheduler, "cluster_aware_decomposition", True)

    def _entity_seed(self, entity_id: str) -> int:
        """Estimation-error seed derived from the entity id (not submission
        order), so a journal replay — which may interleave with new
        submissions — reproduces the same believed-vs-true structure."""
        return zlib.crc32(entity_id.encode("utf-8")) ^ (
            self.config.fault_seed & 0xFFFFFFFF
        )

    def _pin(self, key: str, result: SubmitResult) -> None:
        """Only accepted decisions are pinned: a rejection (full queue,
        infeasible now) may legitimately succeed on retry.  A key that is
        re-pointed (a handoff landing under a key pinned here) leaves its
        previous entity keyless, as :func:`~repro.service.journal.fold`
        reads it: that entity's tombstone must not carry the key away."""
        previous = self.keys.get(key)
        if previous is not None and self._key_of.get(previous.id) == key:
            del self._key_of[previous.id]
        self.keys[key] = result
        self._key_of[result.id] = key

    def _raise_epoch(self, workflow_id: str, epoch: int) -> None:
        if epoch > self.epochs.get(workflow_id, 0):
            self.epochs[workflow_id] = epoch

    def _commit_workflow(
        self,
        workflow: Workflow,
        key: str | None,
        *,
        windows: dict[str, JobWindow] | None = None,
        result: SubmitResult | None = None,
        epoch: int = 0,
    ) -> None:
        """*workflow* becomes owned here (``ValueError``, nothing changed,
        if the engine refuses it).  Admission is the caller's business.

        The engine executes the (possibly error-perturbed) true structure;
        the journal records the *original* submission — replay re-derives
        the same perturbation from the id-keyed seed.
        """
        wid = workflow.workflow_id
        if windows is None:
            windows = decompose_deadline(
                workflow, self.cluster, cluster_aware=self.cluster_aware
            ).windows
        model = self.config.error_model
        self.core.add_workflow(
            workflow
            if model is None
            else apply_workflow_estimation_errors(
                workflow, model, seed=self._entity_seed(wid)
            ),
            request_id=current_request_id(),
        )
        if self.journal is not None:
            self.journal.append_workflow(workflow, key=key, epoch=epoch)
        self.windows.update(windows)
        if self._table is not None:  # from the engine's (perturbed) runs
            runs = map(self.core.job_run, (job.job_id for job in workflow.jobs))
            self._table = self._table.extended(self._rows(runs))
        # A workflow record supersedes an earlier tombstone (journal.fold).
        self.orphans.pop(wid, None)
        if key is not None:
            self._pin(key, result or _accepted("workflow", wid))
        self._raise_epoch(wid, epoch)
        self.arrivals += 1

    def _commit_adhoc(
        self, job: Job, key: str | None, result: SubmitResult | None = None
    ) -> None:
        """*job* joins the ad-hoc queue (``ValueError`` if the engine
        refuses it)."""
        model = self.config.error_model
        self.core.add_adhoc(
            job
            if model is None
            else apply_estimation_errors(
                [job], model, seed=self._entity_seed(job.job_id)
            )[0],
            request_id=current_request_id(),
        )
        if self.journal is not None:
            self.journal.append_adhoc(job, key=key)
        if key is not None:
            self._pin(key, result or _accepted("adhoc", job.job_id))
        self.arrivals += 1

    def recover(self, path: str) -> None:
        """Rebuild the ledger from a pre-crash journal, as
        :func:`~repro.service.journal.fold` reads it.

        Admission is *not* re-run: an accepted submission stays accepted —
        the service owes it completion, not a second opinion.  Execution
        progress was never journaled, so recovered jobs restart from zero
        executed units (conservative, never lossy).
        """
        records, skipped = SubmissionJournal.read(path)
        folded = fold(records)
        recovered = 0
        for record in folded.replay:  # keyless: the fold has every key
            try:
                if record.kind == "adhoc":
                    self._commit_adhoc(record.entity, None)
                    self.accepted_adhoc += 1
                else:
                    self._commit_workflow(record.entity, None)
                    self.accepted_workflows += 1
            except ValueError:
                skipped += 1
                continue
            recovered += 1
        self.orphans.update(folded.orphans)
        for key, (kind, entity_id) in folded.keys.items():
            self._pin(key, _accepted(kind, entity_id))
        for wid, epoch in folded.epochs.items():
            self._raise_epoch(wid, epoch)
        if recovered or skipped or folded.orphans:
            self.obs.counter("service.journal.recovered").inc(recovered)
            if skipped:
                self.obs.counter("service.journal.skipped").inc(skipped)
            if folded.orphans:
                self.obs.counter("service.journal.orphaned").inc(
                    len(folded.orphans)
                )
            self.obs.event(
                "service_recovered",
                journal=str(path),
                n_recovered=recovered,
                n_skipped=skipped,
            )

    # -- submissions --------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: "Workflow | Job",
        key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        """Decide one client submission (``kind`` ``workflow`` | ``adhoc``).

        A retried key of an accepted submission (the answer was lost to a
        crash or a connection reset) returns the original decision — with
        the original request id, the one the trace events carry — and
        never double-admits.  Everything a fresh submission triggers is
        stamped with *request_id*.
        """
        if key is not None and key in self.keys:
            self.obs.counter("service.idempotent.hits").inc()
            return self.keys[key]
        with use_request_id(request_id):
            if kind == "workflow":
                result = self.admit(payload, key)
                if result.accepted:
                    self.accepted_workflows += 1
                elif result.reason != "unavailable":  # no verdict was reached
                    self.rejected_workflows += 1
            elif kind == "adhoc":
                result = self.enqueue(payload, key)
                if result.accepted:
                    self.accepted_adhoc += 1
                elif result.reason == "queue_full":
                    self.shed_adhoc += 1
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown submission kind {kind!r}")
        return result

    def _planner_config(self) -> PlannerConfig:
        planner = getattr(self.scheduler, "planner", None)
        config = getattr(planner, "config", None)
        return config if isinstance(config, PlannerConfig) else PlannerConfig()

    def _rows(self, runs):
        """Table rows of the deadline jobs among the incomplete *runs*."""
        for run in runs:
            job = run.job
            window = self.windows.get(job.job_id)  # admitted => decomposed
            if job.kind is JobKind.DEADLINE and window is not None:
                yield demand_row(window, job.tasks, run.believed_remaining_units())

    def committed_table(self) -> DemandTable:
        """Remaining demands of every admitted, unfinished deadline job.

        Built from the engine's incomplete runs (not the slot view) so
        workflows admitted seconds ago but starting in the future already
        count against headroom; rebuilt, in one pass, only when stale.
        """
        if self._table is None:
            self._table = DemandTable.of(()).extended(self._rows(self.core.incomplete_runs()))
        return self._table

    def committed_demands(self) -> list[JobDemand]:
        """:meth:`committed_table` as objects."""
        return self.committed_table().rows(JobDemand)

    def _reject(self, workflow: Workflow, reason: str, **detail) -> SubmitResult:
        outcome = "unavailable" if reason == "unavailable" else "rejected"
        self.obs.counter(f"service.submit.workflow.{outcome}").inc()
        detail["queue_depth"] = self.core.live_adhoc_count()
        return _answer(False, "workflow", workflow.workflow_id, reason, **detail)

    def admit(
        self, workflow: Workflow, key: str | None = None, *, epoch: int = 0
    ) -> SubmitResult:
        """Admission-check *workflow* against this shard's commitments and,
        on accept, commit exactly the windows the check proved feasible
        (client submissions, and handoffs landing here under *epoch*)."""
        core = self.core
        if self.draining:
            return self._reject(workflow, "draining")
        if workflow.workflow_id in core.workflows:
            return self._reject(workflow, "invalid")
        try:
            for job in workflow.jobs:
                if core.has_job(job.job_id):
                    raise ValueError(f"duplicate job id {job.job_id}")
                core.validate_job(job)
        except ValueError:
            return self._reject(workflow, "invalid")
        detail: dict = {}
        windows = None  # admission off: commit decomposes
        if self.config.admission:
            try:
                decision = check_admission(
                    workflow,
                    self.committed_table(),
                    self.cluster,
                    now_slot=core.slot,
                    config=self._planner_config(),
                    cluster_aware=self.cluster_aware,
                )
            except SolverFailure:
                # The admission LP itself failed — a transient solver
                # condition, not a verdict on the workflow.  Answer
                # "unavailable" (HTTP 503, retryable), never a silent
                # admit that skipped the feasibility proof.
                return self._reject(workflow, "unavailable")
            detail["utilisation"] = decision.utilisation
            if not decision.admit:
                return self._reject(
                    workflow,
                    "infeasible",
                    shortfall_units=dict(decision.shortfall_units),
                    **detail,
                )
            windows = decision.windows
        result = _accepted(
            "workflow",
            workflow.workflow_id,
            queue_depth=core.live_adhoc_count(),
            **detail,
        )
        self._commit_workflow(
            workflow, key, windows=windows, result=result, epoch=epoch
        )
        self.obs.counter("service.submit.workflow.accepted").inc()
        return result

    def enqueue(self, job: Job, key: str | None = None) -> SubmitResult:
        """Queue an ad-hoc job, or shed it once ``adhoc_queue_limit`` jobs
        are outstanding (backpressure instead of an unbounded queue)."""
        core = self.core
        obs = self.obs
        depth = core.live_adhoc_count()
        if self.draining:
            reason = "draining"
        elif core.has_job(job.job_id):
            reason = "invalid"
        elif depth >= self.config.adhoc_queue_limit:
            obs.counter("service.queue.shed").inc()
            reason = "queue_full"
        else:
            result = _accepted("adhoc", job.job_id, queue_depth=depth + 1)
            try:
                self._commit_adhoc(job, key, result)
            except ValueError:
                reason = "invalid"
            else:
                obs.counter("service.submit.adhoc.accepted").inc()
                obs.gauge("service.queue.depth").set(depth + 1)
                return result
        if reason != "queue_full":
            obs.counter("service.submit.adhoc.rejected").inc()
        return _answer(False, "adhoc", job.job_id, reason, queue_depth=depth)

    # -- migration (docs/SHARDING.md) ---------------------------------------------------

    def migrate_out(self, workflow_id: str, dest: str, epoch: int) -> dict:
        """Withdraw a not-yet-started workflow for handoff to shard *dest*:
        tombstone journaled (entity + key embedded), held as an orphan
        until :meth:`confirm` or :meth:`restore`.  The key stays pinned —
        its decision was made here.  ``ValueError`` when the workflow is
        unknown or already started."""
        workflow = self.core.remove_workflow(workflow_id)
        self._table = None
        for job in workflow.jobs:
            self.windows.pop(job.job_id, None)
        key = self._key_of.get(workflow_id)
        if self.journal is not None:
            self.journal.append_migrate_out(
                workflow, dest=dest, epoch=epoch, key=key
            )
        self.orphans[workflow_id] = JournalRecord(
            "migrate_out", key, workflow, 0.0, dest=dest, epoch=epoch
        )
        self._raise_epoch(workflow_id, epoch)
        self.obs.counter("service.migrate.out").inc()
        return {"workflow": workflow, "key": key, "epoch": epoch}

    def migrate_in(
        self, workflow: Workflow, key: str | None = None, epoch: int = 0
    ) -> SubmitResult:
        """Land a handoff: admission re-run against this slice, journaled
        with its epoch and key on accept.  A re-delivery of a workflow
        already owned answers accepted and changes nothing; an epoch below
        the watermark is refused (``stale_epoch``)."""
        wid = workflow.workflow_id
        if wid in self.core.workflows:
            result = _accepted("workflow", wid)
        elif epoch and epoch < self.epochs.get(wid, 0):
            self.obs.counter("service.migrate.stale_epoch").inc()
            return _answer(False, "workflow", wid, "stale_epoch")
        else:
            result = self.admit(workflow, key, epoch=epoch)
        if result.accepted:
            self.obs.counter("service.migrate.in").inc()
        return result

    def restore(self, workflow: Workflow, key: str | None = None) -> SubmitResult:
        """Take back a workflow whose outbound handoff failed.  Admission
        is *not* re-run — accepted stays accepted; the plain ``workflow``
        record it journals supersedes the tombstone."""
        if workflow.workflow_id not in self.core.workflows:
            self._commit_workflow(workflow, key)
        self.obs.counter("service.migrate.restored").inc()
        return _accepted("workflow", workflow.workflow_id)

    def restore_orphan(self, workflow_id: str) -> SubmitResult:
        """:meth:`restore` an orphan from its own tombstone."""
        orphan = self.orphans.get(workflow_id)
        if orphan is None:
            raise ValueError(f"no orphaned migration for {workflow_id}")
        return self.restore(orphan.entity, orphan.key)

    def confirm(self, workflow_id: str, epoch: int) -> dict:
        """Settle an outbound handoff: the destination durably owns it."""
        was_orphan = self.orphans.pop(workflow_id, None) is not None
        self._raise_epoch(workflow_id, epoch)
        if self.journal is not None:
            self.journal.append_migrate_confirm(workflow_id, epoch=epoch)
        self.obs.counter("service.migrate.confirmed").inc()
        return {
            "workflow_id": workflow_id, "epoch": epoch, "was_orphan": was_orphan,
        }

    def orphan_info(self) -> dict[str, dict]:
        """Unsettled outbound handoffs: id -> {dest, epoch} (snapshot)."""
        return {
            wid: {"dest": tombstone.dest, "epoch": tombstone.epoch}
            for wid, tombstone in dict(self.orphans).items()
        }

    def skyline(self) -> dict:
        """Committed-demand saturation summary (the rebalancer's signal):
        committed units against capacity from now to the latest committed
        deadline; ``saturation`` is the worst per-resource fraction."""
        core = self.core
        now = core.slot
        table = self.committed_table()
        resources = self.cluster.resources
        horizon = max(int(table.deadline.max(initial=now + 1)) - now, 1)
        caps = caps_array(self.cluster, now, horizon).sum(axis=0)
        loads = table.units @ table.demand(resources)
        per_resource = {
            resource: float(load) / cap if cap else 0.0
            for resource, load, cap in zip(resources, loads.tolist(), caps.tolist())
        }
        return {
            "slot": now,
            "n_workflows": len(core.workflows),
            "committed_units": int(table.units.sum()),
            "horizon_slots": horizon,
            "queue_depth": core.live_adhoc_count(),
            "per_resource": per_resource,
            "saturation": max(per_resource.values(), default=0.0),
        }

    def migration_candidates(self, max_n: int) -> list[dict]:
        """Not-yet-started workflows, least urgent (latest deadline)
        first — the most slack to survive a re-admission elsewhere."""
        core = self.core
        candidates = []
        # A finished workflow has started: walk the live ones, not history.
        live = {run.job.workflow_id for run in core.incomplete_runs()}
        for wid in live - {None}:
            if core.workflow_started(wid):
                continue
            workflow = core.workflows[wid]
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

    def ledger(self) -> dict:
        """Everything a journal must be able to bring back, as plain
        comparable data (execution progress and reject counts are not in
        it: they are not journaled)."""
        return {
            "workflows": sorted(self.core.workflows),
            "jobs": sorted(run.job.job_id for run in self.core.job_runs()),
            "windows": dict(self.windows),
            "keys": {
                key: (result.kind, result.id)
                for key, result in self.keys.items()
            },
            "orphans": self.orphan_info(),
            "epochs": dict(self.epochs),
        }

    # -- the clock ----------------------------------------------------------------------

    def step(self) -> None:
        """Execute one slot."""
        outcome = self.core.step()
        self._table = None  # work executed, jobs completed
        arrivals = outcome.n_workflow_arrivals
        if arrivals:
            # The coalescing factor of this re-plan: how many workflow
            # submissions one WORKFLOW_ARRIVED batch (= one LP ladder) paid
            # for.  p50 > 1 under bursts is the batching win.
            self.obs.histogram("service.replan.batch_size").observe(arrivals)
        self.obs.gauge("service.queue.depth").set(self.core.live_adhoc_count())

    def advance(self, limit: int) -> None:
        """One move of an unpaced clock: jump the idle gap ahead (never
        past slot *limit*), else execute one slot."""
        if not self.core.skip_idle(limit):
            self.step()

    def run_out(self) -> SimulationResult:
        """Finish every in-flight job (at most ``_DRAIN_MAX_SLOTS`` more
        slots, unpaced) and return the run's final result."""
        core = self.core
        self.obs.event("service_drain_start", slot=core.slot)
        deadline_slot = core.slot + _DRAIN_MAX_SLOTS
        while not core.finished and core.slot < deadline_slot:
            self.advance(deadline_slot)
        core.flush_pending_events()
        core.finalize_metrics()
        finished = core.finished
        core.emit_run_end(finished)
        self.obs.sink.flush()
        return core.result(finished)

    def status(self, running: bool) -> ServiceStatus:
        core = self.core
        return ServiceStatus(
            running=running,
            draining=self.draining,
            slot=core.slot,
            scheduler=getattr(self.scheduler, "name", ""),
            n_workflows=len(core.workflows),
            n_jobs=core.n_jobs,
            remaining_jobs=core.remaining_jobs,
            queue_depth=core.live_adhoc_count(),
            accepted_workflows=self.accepted_workflows,
            rejected_workflows=self.rejected_workflows,
            accepted_adhoc=self.accepted_adhoc,
            shed_adhoc=self.shed_adhoc,
            replans=getattr(self.scheduler, "replans", 0),
        )
