"""What schedulers are allowed to see.

The information asymmetry of Sec. II-A is enforced here: deadline-aware
workflow jobs expose their full *estimated* structure (they recur, so prior
runs provide it), while ad-hoc jobs expose only their per-task container
request and how many requests are currently outstanding — never their total
size or duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.model.cluster import ClusterCapacity
from repro.model.job import TaskSpec
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow


@dataclass(frozen=True)
class DeadlineJobView:
    """A deadline-aware job as the scheduler sees it.

    ``believed_remaining_units`` is derived from the *estimated* task
    structure minus observed progress; when a job overruns its estimate it
    stays at 1 until the engine reports completion (the scheduler cannot
    know the true tail — that is the estimation-error robustness story).
    """

    job_id: str
    workflow_id: str
    arrival_slot: int
    ready: bool
    est_spec: TaskSpec
    executed_units: int
    believed_remaining_units: int

    @property
    def unit_demand(self) -> ResourceVector:
        return self.est_spec.demand

    @property
    def max_parallel(self) -> int:
        return self.est_spec.count


@dataclass(frozen=True)
class AdhocJobView:
    """An ad-hoc job: only its outstanding container requests are visible."""

    job_id: str
    arrival_slot: int
    unit_demand: ResourceVector
    pending_units: int


@dataclass(frozen=True)
class ClusterView:
    """Read-only snapshot handed to schedulers each slot.

    ``deadline_jobs`` / ``adhoc_jobs`` are the jobs that had arrived and were
    not complete when the slot began, in registration order (a job is absent
    before its arrival slot and after the slot it completes in);
    ``workflows`` maps every arrived, not withdrawn workflow by id.
    """

    slot: int
    capacity: ClusterCapacity
    deadline_jobs: tuple[DeadlineJobView, ...]
    adhoc_jobs: tuple[AdhocJobView, ...]
    workflows: Mapping[str, Workflow]

    def capacity_now(self) -> ResourceVector:
        return self.capacity.at(self.slot)

    def live_deadline_jobs(self) -> tuple[DeadlineJobView, ...]:
        """Deadline jobs whose workflow arrived and that are not done."""
        return self.deadline_jobs

    def runnable_deadline_jobs(self) -> tuple[DeadlineJobView, ...]:
        return tuple(j for j in self.deadline_jobs if j.ready)

    def waiting_adhoc_jobs(self) -> tuple[AdhocJobView, ...]:
        """Ad-hoc jobs with outstanding requests, in arrival (FIFO) order."""
        waiting = [j for j in self.adhoc_jobs if j.pending_units > 0]
        waiting.sort(key=lambda j: (j.arrival_slot, j.job_id))
        return tuple(waiting)


def fit_units(
    leftover: ResourceVector, demand: ResourceVector, wanted: int
) -> int:
    """How many task units of *demand* fit into *leftover* (capped by wanted)."""
    if wanted <= 0:
        return 0
    try:
        fit = demand.units_fitting(leftover)
    except ValueError:  # zero demand cannot happen for valid specs; defensive
        return 0
    return min(fit, wanted)


def subtract_grant(
    leftover: ResourceVector, demand: ResourceVector, units: int
) -> ResourceVector:
    return leftover.saturating_sub(demand * units)
