"""Property-based tests over every scheduler's assignment invariants.

Whatever the policy, an assignment must: fit the slot's capacity, grant
only to runnable deadline jobs or waiting ad-hoc jobs, respect per-job
parallelism/pending bounds, and be non-negative.  These are exactly the
checks the engine enforces at runtime; testing them over randomised views
catches policy bugs before a simulation ever runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition_types import JobWindow
from repro.model.cluster import ClusterCapacity
from repro.model.job import TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.schedulers.cora import CoraScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.schedulers.morpheus import MorpheusScheduler
from repro.simulator.view import AdhocJobView, ClusterView, DeadlineJobView
from tests.conftest import deadline_job

CLUSTER = ClusterCapacity.uniform(cpu=16, mem=32)


@st.composite
def random_views(draw):
    """A plausible mid-simulation ClusterView over one tiny workflow."""
    slot = draw(st.integers(min_value=0, max_value=20))
    n_deadline = draw(st.integers(min_value=0, max_value=4))
    n_adhoc = draw(st.integers(min_value=0, max_value=4))

    jobs = [deadline_job(f"w-j{i}", "w") for i in range(max(n_deadline, 1))]
    workflow = Workflow.from_jobs("w", jobs, [], 0, 100)

    deadline_views = []
    for i in range(n_deadline):
        count = draw(st.integers(min_value=1, max_value=6))
        duration = draw(st.integers(min_value=1, max_value=3))
        cores = draw(st.integers(min_value=1, max_value=3))
        mem = draw(st.integers(min_value=1, max_value=4))
        spec = TaskSpec(
            count=count,
            duration_slots=duration,
            demand=ResourceVector({CPU: cores, MEM: mem}),
        )
        total = spec.total_task_slots
        executed = draw(st.integers(min_value=0, max_value=total))
        deadline_views.append(
            DeadlineJobView(
                job_id=f"w-j{i}",
                workflow_id="w",
                arrival_slot=0,
                ready=draw(st.booleans()),
                est_spec=spec,
                executed_units=executed,
                believed_remaining_units=max(total - executed, 1),
            )
        )
    adhoc_views = []
    for i in range(n_adhoc):
        cores = draw(st.integers(min_value=1, max_value=3))
        adhoc_views.append(
            AdhocJobView(
                job_id=f"a{i}",
                arrival_slot=draw(st.integers(min_value=0, max_value=slot)),
                unit_demand=ResourceVector({CPU: cores, MEM: cores * 2}),
                pending_units=draw(st.integers(min_value=0, max_value=8)),
            )
        )
    return ClusterView(
        slot=slot,
        capacity=CLUSTER,
        deadline_jobs=tuple(deadline_views),
        adhoc_jobs=tuple(adhoc_views),
        workflows={"w": workflow},
    )


def make_schedulers():
    schedulers = [
        FifoScheduler(),
        FairScheduler(),
        EdfScheduler(),
        CoraScheduler(),
        FlowTimeScheduler(),
        MorpheusScheduler(),
    ]
    return schedulers


def check_assignment(view: ClusterView, grants) -> None:
    capacity = view.capacity_now()
    used = ResourceVector()
    deadline = {j.job_id: j for j in view.deadline_jobs}
    adhoc = {j.job_id: j for j in view.adhoc_jobs}
    for job_id, units in grants.items():
        assert units >= 0, f"negative grant for {job_id}"
        if units == 0:
            continue
        if job_id in deadline:
            job = deadline[job_id]
            assert job.ready, f"grant to unrunnable {job_id}"
            assert units <= job.max_parallel
            assert units <= job.believed_remaining_units
            used = used + job.unit_demand * units
        elif job_id in adhoc:
            job = adhoc[job_id]
            assert units <= job.pending_units
            used = used + job.unit_demand * units
        else:
            raise AssertionError(f"grant to unknown job {job_id}")
    assert used.fits_in(capacity), f"over capacity: {dict(used)}"


@settings(deadline=None, max_examples=25)
@given(random_views())
def test_all_schedulers_produce_valid_assignments(view):
    # Windows needed by window-driven schedulers: give them directly so the
    # test does not depend on event delivery.
    windows = {
        j.job_id: JobWindow(j.job_id, 0, 100) for j in view.deadline_jobs
    }
    for scheduler in make_schedulers():
        if hasattr(scheduler, "_windows"):
            scheduler._windows.update(windows)
        grants = scheduler.assign(view)
        check_assignment(view, grants)


@settings(deadline=None, max_examples=25)
@given(random_views())
def test_schedulers_are_deterministic(view):
    windows = {
        j.job_id: JobWindow(j.job_id, 0, 100) for j in view.deadline_jobs
    }
    for make in (FifoScheduler, EdfScheduler, FairScheduler):
        a, b = make(), make()
        for scheduler in (a, b):
            if hasattr(scheduler, "_windows"):
                scheduler._windows.update(windows)
        assert dict(a.assign(view)) == dict(b.assign(view))


@settings(deadline=None, max_examples=25)
@given(random_views())
def test_work_conserving_when_capacity_allows(view):
    """If some runnable job still wants units that fit the leftover, a
    work-conserving scheduler grants them (no idle-while-hungry)."""
    scheduler = FairScheduler()
    grants = scheduler.assign(view)
    capacity = view.capacity_now()
    used = ResourceVector()
    for job_id, units in grants.items():
        job = next(
            (j for j in list(view.deadline_jobs) + list(view.adhoc_jobs) if j.job_id == job_id)
        )
        used = used + job.unit_demand * units
    leftover = capacity.saturating_sub(used)
    for job in view.runnable_deadline_jobs():
        wanted = min(job.believed_remaining_units, job.max_parallel)
        already = grants.get(job.job_id, 0)
        if already < wanted:
            # The remaining demand must not fit, or Fair would have granted.
            assert not job.unit_demand.fits_in(leftover)
