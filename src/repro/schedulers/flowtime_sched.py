"""FlowTime, wired to the simulator (the paper's full system, Sec. III-VI).

On every workflow arrival the deadlines are decomposed into per-job windows
(Sec. IV); on every event that changes the deadline-job mix (arrival,
readiness, completion) the LP planner re-solves over the remaining demands
(Sec. V/VI "triggered whenever a task/job completes").  Each slot the plan's
current column is executed for ready jobs and *all* leftover capacity goes
to ad-hoc jobs — that leftover being maximal and early is the whole point of
the lexicographic minimax objective.

Two work-conserving touches beyond the plan column (both optional):

* a ready deadline job may soak up capacity that is still idle after the
  ad-hoc queue was served (never at ad-hoc jobs' expense);
* grants are capped by believed remaining work, so estimate overruns shrink
  to a 1-unit trickle until completion (re-planning handles the rest).

**Degraded mode** (fault tolerance): when the LP planner raises
:class:`~repro.lp.solver.SolverFailure` (the solver faulted, or a solve
blew its wall-time budget), the scheduler does not crash the slot.
It keeps the last feasible plan for already-admitted work and tops up with
an EDF-greedy decision for the current slot — deadline jobs by decomposed
deadline, then ad-hoc leftovers as usual — and re-attempts the LP on every
subsequent slot, recovering automatically on the first successful solve.
Counters: ``sched.plan.failures`` (failed plan attempts),
``sched.degraded.slots`` (slots decided without a fresh plan); trace
events: ``plan_fallback`` / ``plan_recovered``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.allocation import AllocationPlan
from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.core.flowtime import FlowTimePlanner
from repro.core.placement import JobDemand, PlannerConfig
from repro.core.replan import PlanRequest
from repro.lp.solver import SolverFailure
from repro.model.events import Event, EventKind
from repro.obs import current_obs
from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView


class FlowTimeScheduler(Scheduler):
    """Deadline decomposition + lexmin LP planning + leftover ad-hoc serving."""

    name = "FlowTime"

    def __init__(
        self,
        planner_config: PlannerConfig | None = None,
        *,
        cluster_aware_decomposition: bool = True,
        work_conserving: bool = True,
    ):
        self.planner = FlowTimePlanner(planner_config)
        self.cluster_aware_decomposition = cluster_aware_decomposition
        self.work_conserving = work_conserving
        self._windows: dict[str, JobWindow] = {}
        self._plan: Optional[AllocationPlan] = None
        self._needs_replan = False
        self.replans = 0
        self.plan_failures = 0
        self._degraded_mode = False

    @property
    def windows(self) -> dict[str, JobWindow]:
        """Decomposed per-job windows (also the metrics ground truth)."""
        return dict(self._windows)

    @property
    def current_plan(self) -> Optional[AllocationPlan]:
        """The live allocation plan (None before the first planning round).

        Read-only duck-typed surface for frontends that expose plan state
        (the service's ``GET /plan``); plans are replaced wholesale on each
        re-plan, never mutated in place.
        """
        return self._plan

    @property
    def degraded(self) -> bool:
        """True while the last plan attempt failed (serving EDF fallback)."""
        return self._degraded_mode

    # -- event handling -----------------------------------------------------------

    def on_events(self, events: Sequence[Event], view: ClusterView) -> None:
        for event in events:
            kind = event.kind
            if kind is EventKind.WORKFLOW_ARRIVED:
                workflow = view.workflows[event.workflow_id]
                result = decompose_deadline(
                    workflow,
                    view.capacity,
                    cluster_aware=self.cluster_aware_decomposition,
                )
                self._windows.update(result.windows)
                self._needs_replan = True
            elif kind is EventKind.WORKFLOW_WITHDRAWN:
                # The withdrawn workflow's jobs are gone from the view; the
                # stale plan may still reserve capacity for them, so force a
                # re-plan (its stale windows are harmless — demands are
                # rebuilt from the live view).
                self._needs_replan = True
            elif kind in (
                EventKind.JOB_READY,
                EventKind.JOB_COMPLETED,
                EventKind.JOB_SETBACK,
            ):
                if getattr(event, "workflow_id", None) is not None:
                    self._needs_replan = True
            # Ad-hoc arrivals/completions never trigger an LP re-solve: the
            # LP only places deadline work; ad-hoc jobs take the leftovers.

    # -- planning -----------------------------------------------------------------

    def _demands(self, view: ClusterView) -> list[JobDemand]:
        demands = []
        for job in view.live_deadline_jobs():
            window = self._windows.get(job.job_id)
            if window is None:  # defensive: workflow decomposed on arrival
                continue
            demands.append(
                JobDemand.in_window(window, job.est_spec, job.believed_remaining_units)
            )
        return demands

    def _ensure_plan(self, view: ClusterView) -> AllocationPlan:
        plan = self._plan
        stale = (
            plan is None
            or self._needs_replan
            or view.slot >= plan.origin_slot + plan.horizon
        )
        if stale:
            demands = self._demands(view)
            if demands:
                request = PlanRequest(
                    now_slot=view.slot,
                    demands=tuple(demands),
                    capacity=view.capacity,
                )
                try:
                    self._plan = self.planner.plan(request)
                except SolverFailure as failure:
                    # Degraded mode: keep the last feasible plan (stale but
                    # safe for already-admitted work); assign() adds an EDF
                    # greedy decision for the current slot.  _needs_replan
                    # stays True, so every subsequent slot re-attempts the
                    # LP and the first success restores normal planning.
                    self.plan_failures += 1
                    self._degraded_mode = True
                    obs = current_obs()
                    obs.counter("sched.plan.failures").inc()
                    obs.event(
                        "plan_fallback",
                        slot=view.slot,
                        reason=failure.reason,
                        backend=failure.backend,
                        detail=str(failure),
                    )
                    if self._plan is None:
                        return AllocationPlan.empty(
                            view.slot, 1, view.capacity.resources
                        )
                    return self._plan
                self.replans += 1
                if self._degraded_mode:
                    self._degraded_mode = False
                    current_obs().event("plan_recovered", slot=view.slot)
            else:
                # No deadline work: a persistent empty plan (everything goes
                # to ad-hoc jobs) until the next deadline event.
                self._plan = AllocationPlan.empty(
                    view.slot, 2**30, view.capacity.resources
                )
                self._degraded_mode = False
            self._needs_replan = False
        return self._plan

    # -- assignment ------------------------------------------------------------------

    def assign(self, view: ClusterView) -> Assignment:
        plan = self._ensure_plan(view)
        runnable = {j.job_id: j for j in view.runnable_deadline_jobs()}

        # A job that overran its estimate generates no completion event, so
        # a stale plan could leave it starving; detecting the overrun is the
        # "task/job completes" trigger of Sec. VII-4 for the tail case.
        # (Skipped in degraded mode: the plan attempt already failed this
        # slot and the EDF fallback serves overrun jobs anyway.)
        if not self._degraded_mode:
            for job_id, job in runnable.items():
                overrun = job.executed_units >= job.est_spec.total_task_slots
                if overrun and plan.units_for(job_id, view.slot) == 0:
                    self._needs_replan = True
                    plan = self._ensure_plan(view)
                    break

        degraded = self._degraded_mode
        if degraded:
            current_obs().counter("sched.degraded.slots").inc()

        grants: dict[str, int] = {}
        leftover = self.grant_planned(plan, view, runnable, grants)
        ordered = sorted(
            runnable.values(),
            key=lambda j: (
                self._windows[j.job_id].deadline_slot
                if j.job_id in self._windows
                else view.slot,
                j.job_id,
            ),
        )

        if degraded:
            # EDF greedy for the current slot: the stale plan may not cover
            # this slot at all (new arrivals, horizon run-out), so deadline
            # work is topped up by urgency *before* ad-hoc jobs — in a
            # fault, meeting deadlines outranks ad-hoc turnaround.
            leftover = self.top_up(ordered, leftover, grants)

        # Everything the flattened deadline skyline does not use goes to
        # ad-hoc jobs *now* — this is how FlowTime wins Fig. 4(c).  The
        # leftover is shared max-min fairly.
        leftover = self.serve_adhoc_fair(view, leftover, grants)

        if self.work_conserving and not leftover.is_zero():
            self.top_up(ordered, leftover, grants)
        return grants
