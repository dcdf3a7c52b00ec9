"""FAIR baseline: max-min fair sharing across all active jobs.

Models YARN's Fair Scheduler at the granularity our simulator exposes: every
runnable job (deadline or ad-hoc) repeatedly receives one task unit in
round-robin order until nothing more fits — progressive filling, which
converges to max-min fairness in task units.  With ``drf=True`` the filling
order follows Dominant Resource Fairness instead: each round serves the job
whose granted dominant share is currently smallest, which equalises shares
across heterogeneous task shapes (big-memory vs big-CPU tasks) the way
DRF-configured YARN queues do.

Deadlines are ignored either way, which is why Fair misses many of them
(Fig. 4b: 8 jobs), but ad-hoc jobs are never starved, giving Fair the best
baseline turnaround (Fig. 4c).
"""

from __future__ import annotations

from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView, fit_units


class FairScheduler(Scheduler):
    """Progressive-filling max-min fair share over runnable jobs."""

    name = "Fair"

    def __init__(self, *, drf: bool = False):
        self.drf = drf

    def assign(self, view: ClusterView) -> Assignment:
        leftover = view.capacity_now()
        capacity = view.capacity_now()
        grants: dict[str, int] = {}
        # (job_id, unit demand, max more units it can take, dominant share
        # granted so far)
        active: list[list] = []
        for job in view.runnable_deadline_jobs():
            room = min(job.believed_remaining_units, job.max_parallel)
            if room:
                active.append([job.job_id, job.unit_demand, room, 0.0])
        for job in view.waiting_adhoc_jobs():
            if job.pending_units:
                active.append([job.job_id, job.unit_demand, job.pending_units, 0.0])
        active.sort(key=lambda item: item[0])

        if not self.drf:
            self.fill_progressively(active, leftover, grants)
            return grants

        # DRF progressive filling: serve the job with the smallest granted
        # dominant share that can still receive a unit.
        while True:
            best = None
            for item in active:
                job_id, demand, room, share = item
                if room <= 0 or not fit_units(leftover, demand, 1):
                    continue
                if best is None or share < best[3]:
                    best = item
            if best is None:
                return grants
            job_id, demand, _room, _share = best
            grants[job_id] = grants.get(job_id, 0) + 1
            best[2] -= 1
            best[3] += demand.dominant_share(capacity)
            leftover = leftover.saturating_sub(demand)
