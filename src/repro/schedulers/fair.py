"""FAIR baseline: max-min fair sharing across all active jobs.

Models YARN's Fair Scheduler at the granularity our simulator exposes: every
runnable job (deadline or ad-hoc) repeatedly receives one task unit in
round-robin order until nothing more fits — progressive filling, which
converges to max-min fairness in task units.

Deadlines are ignored, which is why Fair misses many of them (Fig. 4b: 8
jobs), but ad-hoc jobs are never starved, giving Fair the best baseline
turnaround (Fig. 4c).
"""

from __future__ import annotations

from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView


class FairScheduler(Scheduler):
    """Progressive-filling max-min fair share over runnable jobs."""

    name = "Fair"

    def assign(self, view: ClusterView) -> Assignment:
        grants: dict[str, int] = {}
        # (job_id, unit demand, max more units it can take)
        active: list[list] = []
        for job in view.runnable_deadline_jobs():
            room = min(job.believed_remaining_units, job.max_parallel)
            if room:
                active.append([job.job_id, job.unit_demand, room])
        for job in view.waiting_adhoc_jobs():
            if job.pending_units:
                active.append([job.job_id, job.unit_demand, job.pending_units])
        active.sort(key=lambda item: item[0])
        self.fill_progressively(active, view.capacity_now(), grants)
        return grants
