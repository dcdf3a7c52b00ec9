"""Scheduler interface and shared helpers.

A scheduler is driven by the simulator: ``on_events`` delivers what changed
at the start of a slot, ``assign`` returns the slot's resource grants.
Grants are expressed in *task units* per job (a unit is one task running for
one slot, consuming the job's per-task demand vector); the engine converts
them to resources, validates capacity, and executes.
"""

from __future__ import annotations

import abc
from typing import Iterable, Mapping, Sequence

from repro.core.allocation import AllocationPlan
from repro.model.events import Event
from repro.model.resources import ResourceVector
from repro.obs import current_obs
from repro.simulator.view import (
    AdhocJobView,
    ClusterView,
    DeadlineJobView,
    fit_units,
)

#: job_id -> number of task units granted this slot.
Assignment = Mapping[str, int]


class Scheduler(abc.ABC):
    """Base class for all scheduling policies."""

    #: Human-readable policy name (used in reports; Fig. 4 legend names).
    name: str = "scheduler"

    def on_events(self, events: Sequence[Event], view: ClusterView) -> None:
        """React to the slot's events (default: stateless, ignore them)."""

    @abc.abstractmethod
    def assign(self, view: ClusterView) -> Assignment:
        """Return this slot's task-unit grants.

        The engine validates that the implied resource usage fits capacity
        and that only ready, unfinished jobs are granted units.
        """

    def decide(self, view: ClusterView) -> Assignment:
        """``assign`` wrapped in the ``sched.decide`` observability span.

        The engine calls this instead of ``assign`` so every policy's
        per-slot decision latency lands in the same histogram (the Fig. 7
        quantity, measured from a live run instead of a microbenchmark).
        Subclasses override ``assign``, never this.
        """
        with current_obs().span("sched.decide"):
            return self.assign(view)

    # -- shared helpers for subclasses --------------------------------------------

    @staticmethod
    def grant_deadline_job(
        job: DeadlineJobView, leftover: ResourceVector, cap_units: int | None = None
    ) -> int:
        """Max units grantable to a deadline job within *leftover*."""
        wanted = min(job.believed_remaining_units, job.max_parallel)
        if cap_units is not None:
            wanted = min(wanted, cap_units)
        return fit_units(leftover, job.unit_demand, wanted)

    @staticmethod
    def grant_adhoc_job(
        job: AdhocJobView, leftover: ResourceVector, cap_units: int | None = None
    ) -> int:
        wanted = job.pending_units
        if cap_units is not None:
            wanted = min(wanted, cap_units)
        return fit_units(leftover, job.unit_demand, wanted)

    @staticmethod
    def grant_planned(
        plan: AllocationPlan, view: ClusterView, runnable: dict, grants: dict[str, int]
    ) -> ResourceVector:
        """Grant each of *runnable*'s deadline jobs, in id order, the units
        *plan* holds for it at the view's slot that fit; return what is left."""
        leftover = view.capacity_now()
        for job_id, job in sorted(runnable.items()):
            planned = plan.units_for(job_id, view.slot)
            fit = fit_units(leftover, job.unit_demand, planned)
            units = min(planned, job.believed_remaining_units, job.max_parallel, fit)
            if units > 0:
                grants[job_id] = units
                leftover = leftover.saturating_sub(job.unit_demand * units)
        return leftover

    @staticmethod
    def top_up(
        jobs: Iterable[DeadlineJobView], leftover: ResourceVector, grants: dict[str, int]
    ) -> ResourceVector:
        """Grant *jobs*, in order, the further units they can run that fit
        *leftover*; return what is left."""
        for job in jobs:
            already = grants.get(job.job_id, 0)
            room = min(job.believed_remaining_units, job.max_parallel) - already
            units = fit_units(leftover, job.unit_demand, room)
            if units > 0:
                grants[job.job_id] = already + units
                leftover = leftover.saturating_sub(job.unit_demand * units)
        return leftover

    @staticmethod
    def serve_adhoc_fifo(
        view: ClusterView, leftover: ResourceVector, grants: dict[str, int]
    ) -> ResourceVector:
        """Grant leftover capacity to waiting ad-hoc jobs in FIFO order."""
        for job in view.waiting_adhoc_jobs():
            units = Scheduler.grant_adhoc_job(job, leftover)
            if units:
                grants[job.job_id] = grants.get(job.job_id, 0) + units
                leftover = leftover.saturating_sub(job.unit_demand * units)
        return leftover

    @staticmethod
    def serve_adhoc_fair(
        view: ClusterView, leftover: ResourceVector, grants: dict[str, int]
    ) -> ResourceVector:
        """Split leftover capacity across waiting ad-hoc jobs max-min
        fairly (progressive filling, one task unit per round)."""
        active = [
            [job.job_id, job.unit_demand, job.pending_units - grants.get(job.job_id, 0)]
            for job in view.waiting_adhoc_jobs()
        ]
        return Scheduler.fill_progressively(active, leftover, grants)

    @staticmethod
    def fill_progressively(
        active: list[list], leftover: ResourceVector, grants: dict[str, int]
    ) -> ResourceVector:
        """Progressive filling: rounds of one task unit to each ``[job_id,
        unit demand, room, ...]`` item of *active* with room that fits
        *leftover*, until none does; return what is left."""
        progress = True
        while progress:
            progress = False
            for item in active:
                job_id, demand, room = item[:3]
                if room <= 0:
                    continue
                if fit_units(leftover, demand, 1):
                    grants[job_id] = grants.get(job_id, 0) + 1
                    item[2] -= 1
                    leftover = leftover.saturating_sub(demand)
                    progress = True
        return leftover
