"""CORA baseline (Huang et al., INFOCOM 2015), adapted as in Sec. VII-A.

CORA schedules to minimise the *maximum utility* over jobs rather than to
maximise met deadlines or minimise ad-hoc turnaround — which is exactly why
the paper finds it "can only obtain a moderate performance" on both metrics.
Per the paper's fair-comparison setup we run CORA with two job classes:

* **deadline-critical** jobs (the workflow jobs, with the same decomposed
  per-job deadlines every algorithm is measured against): utility is the
  required-progress ratio — remaining work over what the job could still do
  before its deadline at full parallelism;
* **deadline-sensitive** jobs (ad-hoc): a soft-deadline utility that grows
  with waiting time.

Each slot CORA progressive-fills: repeatedly grant one task unit to the job
with the highest current utility until nothing fits — a direct greedy
realisation of minimising the max utility.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.model.events import Event, EventKind
from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView, fit_units

#: Waiting time (slots) at which an ad-hoc job's utility reaches its
#: remaining-work share: the soft deadline of the deadline-sensitive class.
ADHOC_SOFT_DEADLINE_SLOTS = 30
#: Weight of a deadline-critical job's required-progress utility.
CRITICAL_WEIGHT = 4.0


class CoraScheduler(Scheduler):
    """Utility-minimax progressive filling with two job classes."""

    name = "CORA"

    def __init__(self) -> None:
        self._windows: dict[str, JobWindow] = {}

    def on_events(self, events: Sequence[Event], view: ClusterView) -> None:
        for event in events:
            if event.kind is EventKind.WORKFLOW_ARRIVED:
                workflow = view.workflows[event.workflow_id]
                result = decompose_deadline(workflow, view.capacity)
                self._windows.update(result.windows)

    def _deadline_utility(self, job, slot: int, granted: int) -> float:
        window = self._windows.get(job.job_id)
        deadline = window.deadline_slot if window else slot + 1
        remaining = max(job.believed_remaining_units - granted, 0)
        if remaining == 0:
            return 0.0
        slack = max(deadline - slot, 1)
        capacity_left = slack * job.max_parallel
        return CRITICAL_WEIGHT * remaining / capacity_left

    def _adhoc_utility(self, job, slot: int, granted: int) -> float:
        remaining = max(job.pending_units - granted, 0)
        if remaining == 0:
            return 0.0
        waited = slot - job.arrival_slot + 1
        return (
            remaining
            / max(job.pending_units, 1)
            * waited
            / ADHOC_SOFT_DEADLINE_SLOTS
        )

    def assign(self, view: ClusterView) -> Assignment:
        leftover = view.capacity_now()
        grants: dict[str, int] = {}
        slot = view.slot

        deadline_jobs = {j.job_id: j for j in view.runnable_deadline_jobs()}
        adhoc_jobs = {j.job_id: j for j in view.waiting_adhoc_jobs()}

        while True:
            best_id = None
            best_utility = 0.0
            best_demand = None
            for job_id, job in deadline_jobs.items():
                granted = grants.get(job_id, 0)
                if granted >= min(job.believed_remaining_units, job.max_parallel):
                    continue
                if not fit_units(leftover, job.unit_demand, 1):
                    continue
                utility = self._deadline_utility(job, slot, granted)
                if utility > best_utility:
                    best_id, best_utility, best_demand = job_id, utility, job.unit_demand
            for job_id, job in adhoc_jobs.items():
                granted = grants.get(job_id, 0)
                if granted >= job.pending_units:
                    continue
                if not fit_units(leftover, job.unit_demand, 1):
                    continue
                utility = self._adhoc_utility(job, slot, granted)
                if utility > best_utility:
                    best_id, best_utility, best_demand = job_id, utility, job.unit_demand
            if best_id is None:
                break
            grants[best_id] = grants.get(best_id, 0) + 1
            leftover = leftover.saturating_sub(best_demand)
        return grants
