"""FIFO baseline: one queue ordered by submission time, deadline-oblivious.

This is the paper's worst performer on deadline metrics (Fig. 4b shows 13
missed jobs): workflow jobs and ad-hoc jobs compete in pure submission
order, and a long-running early job starves everything behind it.
"""

from __future__ import annotations

from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView


class FifoScheduler(Scheduler):
    """Greedy first-in-first-out over all runnable jobs."""

    name = "FIFO"

    def assign(self, view: ClusterView) -> Assignment:
        leftover = view.capacity_now()
        grants: dict[str, int] = {}
        # (submission slot, tie-break class, job id, view): deadline jobs enqueue
        # at their workflow's submission, ad-hoc jobs at their own arrival.
        queue = [
            (job.arrival_slot, 0, job.job_id, job)
            for job in view.runnable_deadline_jobs()
        ]
        queue += [
            (job.arrival_slot, 1, job.job_id, job)
            for job in view.waiting_adhoc_jobs()
        ]
        queue.sort(key=lambda entry: entry[:3])
        for _, klass, job_id, job in queue:
            grant = self.grant_adhoc_job if klass else self.grant_deadline_job
            units = grant(job, leftover)
            if units:
                grants[job_id] = units
                leftover = leftover.saturating_sub(job.unit_demand * units)
        return grants
