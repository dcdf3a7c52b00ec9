"""TetriSched-style baseline (Tumanov et al., EuroSys 2016; the paper's [6]).

TetriSched performs "global rescheduling with adaptive plan-ahead": at every
scheduling event it re-solves the placement of *all* pending jobs over a
plan-ahead window, where each job is a rigid space-time block (a fixed
number of containers for a contiguous stretch).  Our simplified, in-spirit
reproduction keeps those two signatures:

* **rigid blocks** — a job runs at full parallelism for
  ``ceil(units / max_parallel)`` consecutive slots (contrast FlowTime's
  malleable LP allocation);
* **global re-packing** — on every deadline event all unfinished jobs are
  re-placed, earliest-deadline first, each at the earliest start whose
  block fits the residual capacity skyline.

Jobs receive the same decomposed per-job deadlines the other baselines get
(Sec. VII-A fair-comparison setup); blocks that cannot meet their deadline
are still placed as early as possible.  Leftover capacity serves ad-hoc
jobs, and idle capacity work-conserves like the other planners.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.allocation import AllocationPlan
from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.core.placement import caps_array
from repro.model.events import Event, EventKind
from repro.model.resources import ResourceVector
from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView

#: Length (slots) of the plan-ahead window every re-pack places blocks in.
PLAN_AHEAD_SLOTS = 256


class TetriSchedScheduler(Scheduler):
    """Rigid space-time blocks, globally re-packed with plan-ahead."""

    name = "TetriSched"

    def __init__(self) -> None:
        self._windows: dict[str, JobWindow] = {}
        self._plan: Optional[AllocationPlan] = None
        self._needs_replan = False

    @property
    def windows(self) -> dict[str, JobWindow]:
        return dict(self._windows)

    def on_events(self, events: Sequence[Event], view: ClusterView) -> None:
        for event in events:
            kind = event.kind
            if kind is EventKind.WORKFLOW_ARRIVED:
                workflow = view.workflows[event.workflow_id]
                result = decompose_deadline(workflow, view.capacity)
                self._windows.update(result.windows)
                self._needs_replan = True
            elif kind in (
                EventKind.JOB_READY,
                EventKind.JOB_COMPLETED,
                EventKind.JOB_SETBACK,
            ):
                if getattr(event, "workflow_id", None) is not None:
                    self._needs_replan = True

    # -- global re-packing -----------------------------------------------------

    def _repack(self, view: ClusterView) -> AllocationPlan:
        now = view.slot
        live = [
            job for job in view.live_deadline_jobs() if job.job_id in self._windows
        ]
        resources = view.capacity.resources
        if not live:
            return AllocationPlan.empty(now, 1, resources)

        horizon = PLAN_AHEAD_SLOTS
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
            units = job.believed_remaining_units
            demand = np.array([job.unit_demand[name] for name in resources])
            grant = np.zeros(horizon, dtype=int)
            remaining = units
            # Rigid block: full parallelism (or the widest width that fits
            # anywhere) for a contiguous stretch, placed at the earliest
            # feasible start.
            width = min(job.max_parallel, units)
            placed = False
            while width >= 1 and not placed:
                length = math.ceil(units / width)
                for start in range(release, horizon - length + 1):
                    block = load[start : start + length] + demand * width
                    if np.all(block <= caps[start : start + length] + 1e-9):
                        for k in range(length):
                            slot = start + k
                            here = min(width, remaining)
                            grant[slot] = here
                            load[slot] += demand * here
                            remaining -= here
                        placed = True
                        break
                if not placed:
                    width -= 1  # adapt: a narrower, longer block may fit
            if not placed:
                # Could not fit a rigid block inside the plan-ahead window;
                # trickle greedily wherever capacity remains.
                for slot in range(release, horizon):
                    if remaining <= 0:
                        break
                    fit = min(
                        int(
                            min(
                                (caps[slot, r] - load[slot, r]) // demand[r]
                                for r in range(len(resources))
                                if demand[r] > 0
                            )
                        ),
                        job.max_parallel,
                        remaining,
                    )
                    if fit > 0:
                        grant[slot] = fit
                        load[slot] += demand * fit
                        remaining -= fit
            grants[job.job_id] = grant
            unit_demands[job.job_id] = job.unit_demand

        return AllocationPlan(
            origin_slot=now,
            horizon=horizon,
            resources=resources,
            grants=grants,
            unit_demands=unit_demands,
        )

    # -- assignment ------------------------------------------------------------

    def assign(self, view: ClusterView) -> Assignment:
        plan = self._plan
        if (
            plan is None
            or self._needs_replan
            or view.slot >= plan.origin_slot + plan.horizon
        ):
            plan = self._plan = self._repack(view)
            self._needs_replan = False

        grants: dict[str, int] = {}
        runnable = {j.job_id: j for j in view.runnable_deadline_jobs()}
        leftover = self.grant_planned(plan, view, runnable, grants)

        leftover = self.serve_adhoc_fair(view, leftover, grants)

        if not leftover.is_zero():
            ordered = sorted(
                runnable.values(),
                key=lambda j: self._windows.get(
                    j.job_id, JobWindow(j.job_id, 0, view.slot + 1)
                ).deadline_slot,
            )
            self.top_up(ordered, leftover, grants)
        return grants
