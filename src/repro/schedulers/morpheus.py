"""Morpheus baseline (Jyothi et al., OSDI 2016), as characterised in Sec. I.

Morpheus "infer[s] the deadlines of jobs from prior runs of workflows" but
"has not utilized global information of the entire workflow, such as how
jobs depend upon each other".  Our reproduction keeps exactly that split:

* **deadline inference** — per-job windows come from *historical
  observations only* (quantiles of start/completion offsets scaled to the
  current deadline window), never from the DAG;
* **reservation-based placement** — each job's demand is water-filled into
  its inferred window, lowest-skyline-first, one job at a time in inferred
  deadline order (a Rayon-style reservation heuristic, not a global LP);
* leftover capacity serves ad-hoc jobs max-min fairly, and what they
  leave tops up ready deadline jobs (work-conserving).

Without history for a workflow template Morpheus falls back to evenly
spreading jobs across the window — the cold-start behaviour the real system
also has.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.allocation import AllocationPlan
from repro.core.decomposition_types import JobWindow
from repro.core.placement import caps_array
from repro.estimation.estimator import estimate_job_offsets, estimated_makespan
from repro.estimation.history import RunHistory, local_job_id
from repro.model.events import Event, EventKind
from repro.model.resources import ResourceVector
from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView


class MorpheusScheduler(Scheduler):
    """History-inferred job deadlines + greedy reservation placement."""

    name = "Morpheus"

    def __init__(self, history: RunHistory | None = None):
        self.history = history or RunHistory()
        self._windows: dict[str, JobWindow] = {}
        self._plan: Optional[AllocationPlan] = None
        self._needs_replan = False

    @property
    def windows(self) -> dict[str, JobWindow]:
        return dict(self._windows)

    # -- deadline inference ----------------------------------------------------

    def _infer_windows(self, view: ClusterView, workflow_id: str) -> None:
        workflow = view.workflows[workflow_id]
        template = workflow.name or workflow.workflow_id
        window = workflow.window_slots
        # History is keyed by instance-independent local job ids (recurring
        # instances carry per-instance prefixes).
        local_of = {
            job_id: local_job_id(workflow_id, job_id)
            for job_id in workflow.job_ids
        }
        try:
            local_offsets = estimate_job_offsets(
                self.history,
                template,
                [local_of[job_id] for job_id in workflow.job_ids],
            )
            offsets = {
                job_id: local_offsets[local_of[job_id]]
                for job_id in workflow.job_ids
            }
            makespan = max(estimated_makespan(self.history, template), 1.0)
            scale = window / makespan
            for job_id, (start, completion) in offsets.items():
                release = workflow.start_slot + int(np.floor(start * scale))
                deadline = workflow.start_slot + int(np.ceil(completion * scale))
                deadline = min(max(deadline, release + 1), workflow.deadline_slot)
                release = min(release, deadline - 1)
                self._windows[job_id] = JobWindow(
                    job_id=job_id, release_slot=release, deadline_slot=deadline
                )
        except KeyError:
            # Cold start: no history — every job gets the whole window.
            for job_id in workflow.job_ids:
                self._windows[job_id] = JobWindow(
                    job_id=job_id,
                    release_slot=workflow.start_slot,
                    deadline_slot=workflow.deadline_slot,
                )

    # -- events -----------------------------------------------------------------

    def on_events(self, events: Sequence[Event], view: ClusterView) -> None:
        for event in events:
            kind = event.kind
            if kind is EventKind.WORKFLOW_ARRIVED:
                self._infer_windows(view, event.workflow_id)
                self._needs_replan = True
            elif kind in (
                EventKind.JOB_READY,
                EventKind.JOB_COMPLETED,
                EventKind.JOB_SETBACK,
            ):
                if getattr(event, "workflow_id", None) is not None:
                    self._needs_replan = True

    # -- reservation construction ----------------------------------------------------

    def _build_reservation(self, view: ClusterView) -> AllocationPlan:
        """Water-fill each live job into its inferred window, one at a time."""
        now = view.slot
        live = [
            job
            for job in view.live_deadline_jobs()
            if job.job_id in self._windows
        ]
        if not live:
            return AllocationPlan.empty(now, 1, view.capacity.resources)
        horizon = max(
            max(self._windows[j.job_id].deadline_slot for j in live) - now,
            1,
        )
        # Room for overdue work: everyone can at least drain at full rate.
        for job in live:
            need = -(-job.believed_remaining_units // job.max_parallel)
            horizon = max(horizon, need + 1)

        resources = view.capacity.resources
        caps = caps_array(view.capacity, now, horizon)
        load = np.zeros_like(caps)
        grants: dict[str, np.ndarray] = {}
        unit_demands: dict[str, ResourceVector] = {}

        ordered = sorted(
            live, key=lambda j: (self._windows[j.job_id].deadline_slot, j.job_id)
        )
        for job in ordered:
            window = self._windows[job.job_id]
            release = max(window.release_slot - now, 0)
            deadline = max(window.deadline_slot - now, release + 1)
            grant = np.zeros(horizon, dtype=int)
            remaining = job.believed_remaining_units
            demand = np.array([job.unit_demand[name] for name in resources], dtype=float)
            end = min(deadline, horizon)
            # The window, then a spill past the inferred deadline when the
            # window cannot hold the job (Morpheus reservations are
            # best-effort too).
            for lo, hi in ((release, end), (end, horizon)):
                while remaining > 0 and hi > lo:
                    # The slot whose max normalised load after one more unit
                    # is smallest (lowest-skyline water filling), the first
                    # of equals, among those the unit fits.
                    after, room = load[lo:hi] + demand, caps[lo:hi]
                    heights = np.divide(
                        after, room, out=np.full_like(after, -np.inf), where=room > 0
                    ).max(axis=1)
                    full = (grant[lo:hi] >= job.max_parallel) | (after > room).any(axis=1)
                    heights[full] = np.inf
                    slot = lo + int(np.argmin(heights))
                    if heights[slot - lo] == np.inf:
                        break
                    grant[slot] += 1
                    load[slot] += demand
                    remaining -= 1
            grants[job.job_id] = grant
            unit_demands[job.job_id] = job.unit_demand

        return AllocationPlan(
            origin_slot=now,
            horizon=horizon,
            resources=resources,
            grants=grants,
            unit_demands=unit_demands,
        )

    # -- assignment ----------------------------------------------------------------

    def assign(self, view: ClusterView) -> Assignment:
        plan = self._plan
        if (
            plan is None
            or self._needs_replan
            or view.slot >= plan.origin_slot + plan.horizon
        ):
            plan = self._plan = self._build_reservation(view)
            self._needs_replan = False

        grants: dict[str, int] = {}
        runnable = {j.job_id: j for j in view.runnable_deadline_jobs()}
        leftover = self.grant_planned(plan, view, runnable, grants)

        leftover = self.serve_adhoc_fair(view, leftover, grants)

        if not leftover.is_zero():
            ordered = sorted(
                runnable.values(),
                key=lambda j: self._windows.get(
                    j.job_id,
                    JobWindow(j.job_id, 0, view.slot + 1),
                ).deadline_slot,
            )
            self.top_up(ordered, leftover, grants)
        return grants
