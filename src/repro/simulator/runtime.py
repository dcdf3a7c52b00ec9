"""The slot-stepping engine core, shared by batch and online frontends.

Historically the slot loop lived inside :class:`~repro.simulator.engine.
Simulation`, which made it inseparable from a *canned* workload: every
workflow and ad-hoc job had to be known at construction time.  The online
scheduler service (:mod:`repro.service`) needs the same execution semantics
— event delivery, grant validation, true-vs-believed progress, completion
propagation — over a workload that *arrives while the clock runs*.

:class:`EngineCore` is that machinery, factored out:

* jobs and workflows can be registered at any time (``add_workflow`` /
  ``add_adhoc``); an entity registered after its declared start simply
  arrives at the current slot (you cannot submit into the past);
* :meth:`step` advances exactly one slot — deliver events, ask the
  scheduler to decide, execute, propagate completions — and reports what
  happened, so callers own the clock: the batch
  :class:`~repro.simulator.engine.Simulation` spins it as fast as possible,
  the service paces it (virtual or wall-clock-scaled);
* :meth:`skip_idle` moves the clock over slots that hold no decision
  (nothing live, nothing pending) straight to the next arrival; a loop
  that owns a virtual clock calls it before each step, a wall-clock-paced
  one never does;
* :meth:`result` snapshots the same :class:`~repro.simulator.result.
  SimulationResult` the batch simulator always produced.

Outcome equivalence between the two frontends is by construction: both
drive this class, so a workload submitted to the service before its start
slots executes slot-for-slot identically to the same workload replayed
through ``Simulation``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.model.cluster import ClusterCapacity
from repro.model.events import (
    Event,
    JobArrived,
    JobCompleted,
    JobReady,
    JobSetback,
    WorkflowArrived,
    WorkflowCompleted,
    WorkflowWithdrawn,
)
from repro.model.job import Job, JobKind
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.simulator.result import JobRecord, SimulationResult, WorkflowRecord
from repro.simulator.view import AdhocJobView, ClusterView, DeadlineJobView

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from repro.schedulers.base import Scheduler
    from repro.simulator.engine import SimulationConfig

__all__ = ["EngineCore", "JobRun", "StepOutcome", "make_engine_core"]


def _stamp(request_id: str | None) -> dict[str, str]:
    """kwargs fragment adding a request-id stamp only when one is known."""
    return {} if request_id is None else {"request_id": request_id}


class JobRun:
    """Mutable runtime state of one job."""

    __slots__ = (
        "job",
        "arrival_slot",
        "ready_slot",
        "completion_slot",
        "executed_units",
        "unmet_parents",
        "seq",
    )

    def __init__(self, job: Job, arrival_slot: int, unmet_parents: int, seq: int):
        self.job = job
        self.seq = seq  # registration ordinal: the order views list jobs in
        self.arrival_slot = arrival_slot
        self.ready_slot: Optional[int] = None
        self.completion_slot: Optional[int] = None
        self.executed_units = 0
        self.unmet_parents = unmet_parents

    @property
    def true_total_units(self) -> int:
        return self.job.execution_tasks.total_task_slots

    @property
    def true_remaining_units(self) -> int:
        return self.true_total_units - self.executed_units

    @property
    def done(self) -> bool:
        return self.completion_slot is not None

    def ready_at(self, slot: int) -> bool:
        return self.ready_slot is not None and self.ready_slot <= slot

    def believed_remaining_units(self) -> int:
        """What the scheduler thinks is left, from the estimated structure.

        When a job overruns its estimate the scheduler cannot know the
        remaining tail, but it *can* see the job's outstanding container
        requests (every real resource manager does), so the belief floors
        at the currently visible requests instead of a 1-unit trickle.
        """
        if self.done:
            return 0
        est_remaining = self.job.tasks.total_task_slots - self.executed_units
        if est_remaining > 0:
            return est_remaining
        return min(self.job.execution_tasks.count, self.true_remaining_units)


@dataclass
class StepOutcome:
    """What one :meth:`EngineCore.step` did (one slot of execution)."""

    slot: int
    events: list[Event] = field(default_factory=list)
    completions: list[str] = field(default_factory=list)
    executed: dict[str, int] = field(default_factory=dict)
    decide_seconds: float = 0.0

    @property
    def n_workflow_arrivals(self) -> int:
        return sum(1 for e in self.events if isinstance(e, WorkflowArrived))

    @property
    def n_adhoc_arrivals(self) -> int:
        return sum(1 for e in self.events if isinstance(e, JobArrived))


def make_engine_core(
    cluster: ClusterCapacity,
    scheduler: "Scheduler",
    config: "SimulationConfig",
    obs,
) -> "EngineCore":
    """Build the engine core (the constructor, under the name the batch
    simulator, the service and ``bench/`` import)."""
    return EngineCore(cluster, scheduler, config, obs)


class EngineCore:
    """Dynamic slot-stepping core binding a cluster, a scheduler, and jobs.

    The caller owns the clock: each :meth:`step` call executes exactly one
    slot.  Work may be registered before the run starts (the batch
    simulator) or between steps (the online service).
    """

    def __init__(
        self,
        cluster: ClusterCapacity,
        scheduler: "Scheduler",
        config: "SimulationConfig",
        obs,
    ):
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config
        self.obs = obs
        self.workflows: dict[str, Workflow] = {}
        self.slot = 0
        self._runs: dict[str, JobRun] = {}
        self._workflow_arrival: dict[str, int] = {}
        self._workflow_completion: dict[str, Optional[int]] = {}
        self._workflow_remaining: dict[str, int] = {}
        self._fragmentation_waste = 0
        self._pending_events: list[Event] = []
        self._usage_rows: list[list[float]] = []
        self._granted_rows: list[list[float]] = []
        self._execution_rows: list[dict[str, int]] = []
        self._planning_calls = 0
        self._planning_seconds = 0.0
        # Slowest-slot tracking for the per-phase report: which slot cost
        # the most wall-clock time, and how much of it was the scheduler.
        self._slowest = (-1.0, -1, 0.0)  # (seconds, slot, decide_seconds)
        self._prev_running: set[str] = set()
        # Registered, not completed, not withdrawn runs, in registration order.
        self._incomplete: dict[str, JobRun] = {}
        self._live_adhoc = 0
        # Arrival index: slot -> (workflow ids, ad-hoc job ids) arriving
        # then, each in registration order.  ``step`` pops its slot's
        # bucket, ``skip_idle`` reads the smallest key, so every key is
        # >= ``self.slot`` and an empty bucket is never kept.
        self._arrivals: dict[int, tuple[list[str], list[str]]] = {}
        # Live-run index, all ``view`` reads: runs delivered by a step and not
        # yet completed or withdrawn, in registration order (``JobRun.seq``:
        # a workflow registered first may arrive later), and their workflows.
        self._live_runs: list[JobRun] = []
        self._arrived: dict[str, Workflow] = {}
        self._seq = count()
        self._skipped_counter = obs.counter("sim.slots.skipped")
        # Prefer the span-wrapped ``decide`` of repro schedulers; duck-typed
        # stand-ins (test doubles) only need ``assign``.
        self._decide = getattr(scheduler, "decide", scheduler.assign)
        self._failure_rng = config.failures.rng() if config.failures else None
        # The end-of-run validation of a verified run reads the per-slot
        # execution rows, so a verified run always records them.
        self._record_execution = config.record_execution or config.verify
        # Request correlation: entity id (workflow or job) -> request id.
        # Engine events fire on the stepping thread long after the
        # submission's context (and its request-id contextvar) is gone, so
        # the mapping recorded at registration is what stamps them.
        self._request_ids: dict[str, str] = {}
        # SLO feed metrics, resolved once (the null handle returns detached
        # throwaways; resolving per step would allocate on the hot path).
        self._slo_workflows_total = obs.windowed_counter("slo.workflows.total")
        self._slo_workflows_missed = obs.windowed_counter("slo.workflows.missed")
        self._slo_decide_seconds = obs.windowed_histogram("slo.decide.seconds")

    # -- registration -------------------------------------------------------------

    def add_workflow(
        self, workflow: Workflow, *, request_id: str | None = None
    ) -> None:
        """Register a workflow; it arrives at ``max(start_slot, now)``.

        Raises ``ValueError`` on duplicate ids or jobs that cannot fit the
        cluster (workload validation happens at registration so a bad
        submission is rejected before it can poison the run).  When
        *request_id* is given, every trace event the engine later emits
        for this workflow or its jobs is stamped with it.
        """
        if workflow.workflow_id in self.workflows:
            raise ValueError(f"duplicate workflow {workflow.workflow_id}")
        for job in workflow.jobs:
            if job.job_id in self._runs:
                raise ValueError(f"duplicate job id {job.job_id}")
            self._validate_job(job)
        arrival = max(workflow.start_slot, self.slot)
        self.workflows[workflow.workflow_id] = workflow
        self._workflow_arrival[workflow.workflow_id] = arrival
        self._workflow_completion[workflow.workflow_id] = None
        self._workflow_remaining[workflow.workflow_id] = len(workflow)
        for job in workflow.jobs:
            self._runs[job.job_id] = self._incomplete[job.job_id] = JobRun(
                job,
                arrival_slot=arrival,
                unmet_parents=len(workflow.parents_of(job.job_id)),
                seq=next(self._seq),
            )
        self._arrivals.setdefault(arrival, ([], []))[0].append(
            workflow.workflow_id
        )
        if request_id is not None:
            self._request_ids[workflow.workflow_id] = request_id
            for job in workflow.jobs:
                self._request_ids[job.job_id] = request_id

    def add_adhoc(self, job: Job, *, request_id: str | None = None) -> None:
        """Register an ad-hoc job; it arrives at ``max(arrival_slot, now)``."""
        if job.kind is not JobKind.ADHOC:
            raise ValueError(f"job {job.job_id} in adhoc_jobs is not ADHOC")
        if job.job_id in self._runs:
            raise ValueError(f"duplicate job id {job.job_id}")
        self._validate_job(job)
        arrival = max(job.arrival_slot, self.slot)
        self._runs[job.job_id] = self._incomplete[job.job_id] = JobRun(
            job, arrival_slot=arrival, unmet_parents=0, seq=next(self._seq)
        )
        self._live_adhoc += 1
        self._arrivals.setdefault(arrival, ([], []))[1].append(job.job_id)
        if request_id is not None:
            self._request_ids[job.job_id] = request_id

    def remove_workflow(self, workflow_id: str) -> Workflow:
        """Withdraw a registered workflow that has not started executing.

        Shard migration support: a workflow moves to another shard only
        while it is still pure bookkeeping here — no job has executed a
        single task-slot and none completed.  Raises ``ValueError`` when
        the workflow is unknown or has started (a started workflow's
        progress lives only in this engine and must not be abandoned).

        A :class:`~repro.model.events.WorkflowWithdrawn` event is queued
        for the next step, so the scheduler drops any plan capacity it was
        still reserving for the withdrawn jobs.
        """
        workflow = self.workflows.get(workflow_id)
        if workflow is None:
            raise ValueError(f"unknown workflow {workflow_id}")
        for job in workflow.jobs:
            run = self._runs[job.job_id]
            if run.executed_units > 0 or run.done:
                raise ValueError(
                    f"workflow {workflow_id} has started (job {job.job_id}); "
                    "not withdrawable"
                )
        arrival = self._workflow_arrival.pop(workflow_id)
        if arrival >= self.slot:  # not delivered yet: leave the index
            bucket = self._arrivals[arrival]
            bucket[0].remove(workflow_id)
            if not any(bucket):
                del self._arrivals[arrival]
        else:
            del self._arrived[workflow_id]
            self._live_runs = [
                run for run in self._live_runs
                if run.job.workflow_id != workflow_id
            ]
            # A job that ran and lost it all to a setback is withdrawable.
            self._prev_running.difference_update(j.job_id for j in workflow.jobs)
        del self.workflows[workflow_id]
        del self._workflow_completion[workflow_id]
        del self._workflow_remaining[workflow_id]
        self._request_ids.pop(workflow_id, None)
        for job in workflow.jobs:
            del self._runs[job.job_id], self._incomplete[job.job_id]
            self._request_ids.pop(job.job_id, None)
        self._pending_events.append(
            WorkflowWithdrawn(slot=self.slot, workflow_id=workflow_id)
        )
        return workflow

    def workflow_ids(self) -> list[str]:
        """Ids of every registered (not withdrawn) workflow."""
        return list(self.workflows)

    def workflow_started(self, workflow_id: str) -> bool:
        """True when any job of the workflow executed or completed."""
        workflow = self.workflows[workflow_id]
        return any(
            self._runs[job.job_id].executed_units > 0
            or self._runs[job.job_id].done
            for job in workflow.jobs
        )

    def validate_job(self, job: Job) -> None:
        """Raise ``ValueError`` when one of *job*'s tasks cannot fit the
        cluster (or any node of the node-level topology)."""
        self._validate_job(job)

    def _validate_job(self, job: Job) -> None:
        base = self.cluster.base
        nodes = self.config.node_cluster
        for spec in (job.tasks, job.execution_tasks):
            if not spec.demand.fits_in(base):
                raise ValueError(
                    f"job {job.job_id}: one task does not fit the cluster"
                )
            if nodes is not None and not any(
                spec.demand.fits_in(node) for node in nodes.nodes
            ):
                raise ValueError(
                    f"job {job.job_id}: one task does not fit any node"
                )

    def validate_cluster(self) -> None:
        base = self.cluster.base
        nodes = self.config.node_cluster
        if nodes is not None and not base.fits_in(nodes.aggregate()):
            raise ValueError(
                "aggregate cluster capacity exceeds the node cluster's total"
            )

    # -- introspection ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True when every registered job has completed."""
        return not self._incomplete

    @property
    def n_jobs(self) -> int:
        return len(self._runs)

    @property
    def remaining_jobs(self) -> int:
        return len(self._incomplete)

    def live_adhoc_count(self) -> int:
        """Ad-hoc jobs registered but not yet completed (queue depth).

        O(1): the service reads this on every slot (queue-depth gauge,
        shed decisions) and during drain — a full scan of ``_runs`` per
        slot made an *empty* queue cost O(jobs) per step.  The counter
        is maintained at registration and completion instead.
        """
        return self._live_adhoc

    def job_run(self, job_id: str) -> JobRun:
        return self._runs[job_id]

    def job_runs(self):
        """All registered job runs (including not-yet-arrived ones)."""
        return self._runs.values()

    def has_job(self, job_id: str) -> bool:
        return job_id in self._runs

    def incomplete_runs(self):
        """Registered runs that are not complete — not yet delivered, or
        live — in registration order."""
        return self._incomplete.values()

    # -- views -------------------------------------------------------------------

    def view(self) -> ClusterView:
        """The scheduler's snapshot of the current slot (the live-run index)."""
        slot = self.slot
        deadline_views = []
        adhoc_views = []
        for run in self._live_runs:
            job = run.job
            if job.kind is JobKind.DEADLINE:
                deadline_views.append(
                    DeadlineJobView(
                        job_id=job.job_id,
                        workflow_id=job.workflow_id or "",
                        arrival_slot=run.arrival_slot,
                        ready=run.ready_at(slot),
                        est_spec=job.tasks,
                        executed_units=run.executed_units,
                        believed_remaining_units=run.believed_remaining_units(),
                    )
                )
            else:
                # Ad-hoc jobs expose only their *outstanding container
                # requests* (at most one per task), never their total size.
                pending = min(
                    job.execution_tasks.count, run.true_remaining_units
                )
                adhoc_views.append(
                    AdhocJobView(
                        job_id=job.job_id,
                        arrival_slot=run.arrival_slot,
                        unit_demand=job.execution_tasks.demand,
                        pending_units=pending,
                    )
                )
        return ClusterView(
            slot=slot,
            capacity=self.cluster,
            deadline_jobs=tuple(deadline_views),
            adhoc_jobs=tuple(adhoc_views),
            workflows=self._arrived,
        )

    # -- stepping ------------------------------------------------------------------

    def skip_idle(self, limit: int) -> int:
        """Move the clock over slots that hold no decision.

        Returns how many slots were skipped (0: the caller should step).

        When no delivered job is incomplete and no event is pending, every
        slot before the next arrival is empty: the scheduler has nothing
        to place, nothing executes, the failure RNG (rolled per executed
        job) is not consulted and no trace event fires.  The clock goes
        to ``min(next arrival, limit)`` and the skipped slots get the
        all-zero usage/granted (and empty execution) rows a step would
        have recorded, so :meth:`result` is the same either way.  They get
        no ``sim.slot`` span, no decide call and no ``planning_calls``
        tick; ``sim.slots.skipped`` counts them instead.
        """
        if self._live_runs or self._pending_events or not self._arrivals:
            return 0
        skipped = min(min(self._arrivals), limit) - self.slot
        if skipped <= 0:
            return 0
        zero_row = [0.0] * len(self.cluster.resources)
        self._usage_rows.extend([zero_row] * skipped)
        self._granted_rows.extend([zero_row] * skipped)
        if self._record_execution:
            self._execution_rows.extend({} for _ in range(skipped))
        self._skipped_counter.inc(skipped)
        self.slot += skipped
        return skipped

    def step(self) -> StepOutcome:
        """Execute one slot: events -> decide -> execute -> completions.

        One call, one slot.  Within the slot the scheduler is handed

        1. the events carried over from the previous executed slot —
           completions, readiness releases, setbacks, withdrawals — in
           the order they were generated;
        2. workflow arrivals in registration order, each followed at once
           by the readiness events of its root jobs;
        3. ad-hoc job arrivals in registration order.
        """
        config = self.config
        obs = self.obs
        tracing = obs.tracing
        slot = self.slot
        slot_span = obs.span("sim.slot")
        slot_span.__enter__()
        events = self._pending_events
        self._pending_events = []

        workflow_ids, adhoc_ids = self._arrivals.pop(slot, ((), ()))
        for workflow_id in workflow_ids:
            workflow = self._arrived[workflow_id] = self.workflows[workflow_id]
            events.append(WorkflowArrived(slot=slot, workflow_id=workflow_id))
            for job_id in workflow.roots():
                self._runs[job_id].ready_slot = slot
                events.append(
                    JobReady(slot=slot, job_id=job_id, workflow_id=workflow_id)
                )
            self._live_runs.extend(self._runs[j.job_id] for j in workflow.jobs)
        for job_id in adhoc_ids:
            self._runs[job_id].ready_slot = slot
            events.append(JobArrived(slot=slot, job_id=job_id))
            self._live_runs.append(self._runs[job_id])
        if workflow_ids or adhoc_ids:
            self._live_runs.sort(key=lambda run: run.seq)  # nearly sorted

        if tracing:
            self.trace_events(events)

        view = self.view()
        start = time.perf_counter()
        if events:
            self.scheduler.on_events(events, view)
        assignment = self._decide(view)
        decide_seconds = time.perf_counter() - start
        self._planning_seconds += decide_seconds
        self._planning_calls += 1
        self._slo_decide_seconds.observe(decide_seconds)

        usage, granted, completions, executed = self._execute(
            slot, assignment, view
        )
        resources = self.cluster.resources
        self._usage_rows.append([usage[r] for r in resources])
        self._granted_rows.append([granted[r] for r in resources])
        if self._record_execution:
            self._execution_rows.append(executed)

        if tracing:
            request_ids = self._request_ids
            for job_id, units in executed.items():
                obs.event(
                    "task_placement",
                    slot=slot,
                    job_id=job_id,
                    units=units,
                    **_stamp(request_ids.get(job_id)),
                )
            # Preemption at a slot boundary: a job that ran last slot,
            # is still unfinished, and received nothing this slot.
            running = set(executed)
            # Sorted so traces are byte-stable across processes (set
            # order varies with the interpreter's hash seed; the golden
            # corpus diffs traces exactly).
            for job_id in sorted(self._prev_running - running):
                if not self._runs[job_id].done:
                    obs.event(
                        "job_preempted",
                        slot=slot,
                        job_id=job_id,
                        **_stamp(request_ids.get(job_id)),
                    )
            self._prev_running = running

        # Failure injection: jobs that ran but did not complete may lose
        # progress (a crashed container redoes work).  Completed jobs
        # are safe — their outputs are materialised.
        if self._failure_rng is not None:
            done = set(completions)
            for job_id in executed:
                if job_id in done:
                    continue
                run = self._runs[job_id]
                lost = config.failures.roll(self._failure_rng, run.executed_units)
                if lost > 0:
                    run.executed_units -= lost
                    self._pending_events.append(
                        JobSetback(
                            slot=slot + 1,
                            job_id=job_id,
                            lost_units=lost,
                            workflow_id=run.job.workflow_id,
                        )
                    )

        # Completions propagate readiness and workflow completion events
        # delivered at the start of the next slot.
        for job_id in completions:
            run = self._incomplete.pop(job_id)
            if run.job.kind is JobKind.ADHOC:
                self._live_adhoc -= 1
            workflow_id = run.job.workflow_id
            self._pending_events.append(
                JobCompleted(slot=slot + 1, job_id=job_id, workflow_id=workflow_id)
            )
            if workflow_id is not None:
                workflow = self.workflows[workflow_id]
                self._workflow_remaining[workflow_id] -= 1
                if self._workflow_remaining[workflow_id] == 0:
                    self._workflow_completion[workflow_id] = slot
                    self._pending_events.append(
                        WorkflowCompleted(slot=slot + 1, workflow_id=workflow_id)
                    )
                    missed = slot >= workflow.deadline_slot
                    self._slo_workflows_total.inc()
                    if missed:
                        self._slo_workflows_missed.inc()
                    if tracing and missed:
                        obs.event(
                            "workflow_deadline_miss",
                            slot=slot,
                            workflow_id=workflow_id,
                            deadline_slot=workflow.deadline_slot,
                            **_stamp(self._request_ids.get(workflow_id)),
                        )
                for child in workflow.dependents_of(job_id):
                    child_run = self._runs[child]
                    child_run.unmet_parents -= 1
                    if child_run.unmet_parents == 0:
                        child_run.ready_slot = slot + 1
                        self._pending_events.append(
                            JobReady(
                                slot=slot + 1,
                                job_id=child,
                                workflow_id=workflow_id,
                            )
                        )
        if completions:
            self._live_runs = [r for r in self._live_runs if not r.done]
        self.slot = slot + 1
        slot_span.__exit__(None, None, None)
        if slot_span.elapsed > self._slowest[0]:
            self._slowest = (slot_span.elapsed, slot, decide_seconds)
        return StepOutcome(
            slot=slot,
            events=events,
            completions=completions,
            executed=executed,
            decide_seconds=decide_seconds,
        )

    def flush_pending_events(self) -> None:
        """Deliver any final events (completions from the last executed slot)
        to the scheduler without asking for more work."""
        if not self._pending_events:
            return
        pending, self._pending_events = self._pending_events, []
        if self.obs.tracing:
            self.trace_events(pending)
        self.scheduler.on_events(pending, self.view())

    def trace_events(self, events: list[Event]) -> None:
        """Mirror engine events into the trace (types match EventKind values).

        Events are stamped with the originating submission's request id
        when the entity was registered with one.
        """
        obs = self.obs
        request_ids = self._request_ids
        for event in events:
            fields = {
                key: value
                for key, value in vars(event).items()
                if key != "slot" and value is not None
            }
            request_id = request_ids.get(
                getattr(event, "job_id", None) or ""
            ) or request_ids.get(getattr(event, "workflow_id", None) or "")
            if request_id is not None:
                fields["request_id"] = request_id
            obs.event(event.kind.value, slot=event.slot, **fields)

    def _execute(
        self, slot: int, assignment, view: ClusterView
    ) -> tuple[ResourceVector, ResourceVector, list[str], dict[str, int]]:
        """Run one slot of granted work.

        Returns (used, granted, completions, executed-units-per-job).
        """
        capacity = self.cluster.at(slot)
        granted_total = ResourceVector()
        used_total = ResourceVector()
        completions: list[str] = []
        executed: dict[str, int] = {}

        # Pass 1: validate grants and derive how many *true* tasks the
        # granted resources can host per job.
        runnable: list[tuple[str, int]] = []  # (job_id, desired true tasks)
        for job_id, units in assignment.items():
            if units <= 0:
                continue
            run = self._runs.get(job_id)
            if run is None:
                raise ValueError(f"scheduler granted unknown job {job_id!r}")
            if run.done or not run.ready_at(slot):
                raise ValueError(
                    f"scheduler granted units to job {job_id!r} which is "
                    f"{'done' if run.done else 'not ready'} at slot {slot}"
                )
            believed_demand = run.job.tasks.demand
            grant_vec = believed_demand * int(units)
            granted_total = granted_total + grant_vec

            # Execution uses the *true* structure: the engine runs as many
            # true task-slots as the granted resources can host.
            true_spec = run.job.execution_tasks
            tasks_run = min(
                true_spec.demand.units_fitting(grant_vec),
                true_spec.count,
                run.true_remaining_units,
            )
            if tasks_run > 0:
                runnable.append((job_id, tasks_run))

        # Node-level placement: tasks must also pack onto machines; units
        # lost to fragmentation simply do not run this slot.
        if self.config.node_cluster is not None and runnable:
            pack = self.config.node_cluster.pack(
                [
                    (job_id, self._runs[job_id].job.execution_tasks.demand, tasks)
                    for job_id, tasks in runnable
                ]
            )
            self._fragmentation_waste += pack.total_unplaced
            runnable = [
                (job_id, pack.placed.get(job_id, 0)) for job_id, _ in runnable
            ]

        # Pass 2: execute.
        for job_id, tasks_run in runnable:
            if tasks_run <= 0:
                continue
            run = self._runs[job_id]
            true_spec = run.job.execution_tasks
            run.executed_units += tasks_run
            executed[job_id] = tasks_run
            used_total = used_total + true_spec.demand * tasks_run
            if run.true_remaining_units == 0:
                run.completion_slot = slot
                completions.append(job_id)

        if not granted_total.fits_in(capacity):
            raise ValueError(
                f"slot {slot}: scheduler granted {dict(granted_total)} "
                f"exceeding capacity {dict(capacity)}"
            )
        return used_total, granted_total, completions, executed

    # -- results -----------------------------------------------------------------

    def finalize_metrics(self) -> None:
        """Mirror end-of-run state into gauges (slowest slot, plan cache)."""
        obs = self.obs
        if self._slowest[1] >= 0:
            obs.gauge("sim.slowest_slot").set(self._slowest[1])
            obs.gauge("sim.slowest_slot_seconds").set(self._slowest[0])
            obs.gauge("sim.slowest_slot_decide_seconds").set(self._slowest[2])
        # Planner-owning schedulers (duck-typed: scheduler.planner.plan_cache)
        # get their end-of-run cache state mirrored into the metrics, so
        # SimulationResult.metrics carries the steady-state hit rate without
        # callers reaching into scheduler internals.
        cache = getattr(getattr(self.scheduler, "planner", None), "plan_cache", None)
        if cache is not None:
            obs.gauge("sched.plan.cache.entries").set(len(cache))
            obs.gauge("sched.plan.cache.hit_rate").set(cache.hit_rate)

    def result(self, finished: bool | None = None) -> SimulationResult:
        """Snapshot the run as the batch simulator's result object."""
        resources = self.cluster.resources
        jobs = {
            job_id: JobRecord(
                job_id=job_id,
                kind=run.job.kind,
                workflow_id=run.job.workflow_id,
                arrival_slot=run.arrival_slot,
                ready_slot=run.ready_slot,
                completion_slot=run.completion_slot,
                true_units=run.true_total_units,
                est_units=run.job.tasks.total_task_slots,
            )
            for job_id, run in self._runs.items()
        }
        workflow_records = {
            wid: WorkflowRecord(
                workflow_id=wid,
                start_slot=self._workflow_arrival[wid],
                deadline_slot=wf.deadline_slot,
                completion_slot=self._workflow_completion[wid],
            )
            for wid, wf in self.workflows.items()
        }
        usage_rows = self._usage_rows
        granted_rows = self._granted_rows
        shape = (max(len(usage_rows), 1), len(resources))
        usage = np.zeros(shape)
        granted = np.zeros(shape)
        if usage_rows:
            usage[: len(usage_rows)] = np.asarray(usage_rows)
            granted[: len(granted_rows)] = np.asarray(granted_rows)
        return SimulationResult(
            slot_seconds=self.config.slot_seconds,
            n_slots=self.slot,
            finished=self.finished if finished is None else finished,
            jobs=jobs,
            workflows=workflow_records,
            usage=usage,
            granted=granted,
            resources=resources,
            scheduler_name=getattr(self.scheduler, "name", ""),
            planning_calls=self._planning_calls,
            planning_seconds=self._planning_seconds,
            execution=tuple(self._execution_rows),
            fragmentation_waste_units=self._fragmentation_waste,
            metrics=self.obs.registry.snapshot(),
        )

    # -- run lifecycle logging ------------------------------------------------------

    def emit_run_start(self) -> None:
        self.obs.event(
            "run_start",
            scheduler=getattr(self.scheduler, "name", ""),
            n_jobs=len(self._runs),
            n_workflows=len(self.workflows),
            slot_seconds=self.config.slot_seconds,
        )
        self.obs.log(
            logging.INFO,
            "simulation start: %d jobs, %d workflows, scheduler=%s",
            len(self._runs), len(self.workflows),
            getattr(self.scheduler, "name", ""),
        )

    def emit_run_end(self, finished: bool) -> None:
        self.obs.event("run_end", n_slots=self.slot, finished=finished)
        self.obs.log(
            logging.INFO,
            "simulation end: %d slots, finished=%s", self.slot, finished,
        )
