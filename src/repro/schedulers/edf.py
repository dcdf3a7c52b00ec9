"""EDF baseline: earliest deadline first, ad-hoc jobs only get leftovers.

This is the motivating strawman of Fig. 1 and the behaviour the paper
ascribes to reservation-style systems like Rayon [4], which "assumed that
the deadline for each job is known": jobs run in deadline order as fast as
possible, and ad-hoc work only sees what is left.  To give EDF the per-job
deadlines it assumes, it receives the same decomposed job windows every
algorithm is judged against (the paper's fair-comparison setup, Sec. VII-A).

EDF is therefore the best baseline on deadline misses (Fig. 4b: 5 of 90)
but inflates ad-hoc turnaround by an order of magnitude (Fig. 4c: ~10x
FlowTime): whenever deadline work exists it hogs the cluster, however loose
the deadlines are.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.model.events import Event, EventKind
from repro.schedulers.base import Assignment, Scheduler
from repro.simulator.view import ClusterView


class EdfScheduler(Scheduler):
    """Greedy earliest-job-deadline-first."""

    name = "EDF"

    def __init__(self) -> None:
        self._windows: dict[str, JobWindow] = {}

    def on_events(self, events: Sequence[Event], view: ClusterView) -> None:
        for event in events:
            if event.kind is EventKind.WORKFLOW_ARRIVED:
                workflow = view.workflows[event.workflow_id]
                result = decompose_deadline(workflow, view.capacity)
                self._windows.update(result.windows)

    def _deadline_of(self, view: ClusterView, job) -> int:
        window = self._windows.get(job.job_id)
        if window is not None:
            return window.deadline_slot
        return view.workflows[job.workflow_id].deadline_slot

    def assign(self, view: ClusterView) -> Assignment:
        leftover = view.capacity_now()
        grants: dict[str, int] = {}
        ordered = sorted(
            view.runnable_deadline_jobs(),
            key=lambda job: (
                self._deadline_of(view, job),
                job.arrival_slot,
                job.job_id,
            ),
        )
        leftover = self.top_up(ordered, leftover, grants)
        self.serve_adhoc_fifo(view, leftover, grants)
        return grants
