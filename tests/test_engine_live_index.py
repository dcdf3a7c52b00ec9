"""The engine's live-run index against the full scans it replaced.

``EngineCore.view()`` used to walk every run ever registered on every
executed slot; it now reads an index of the runs that have been delivered
and are not complete.  The full scan lives on here as the oracle
(:func:`reference_view`): seeded random runs — late starters registered
early, same-slot arrivals, ad-hoc jobs, setbacks, withdrawals before and
after delivery, registration between steps — must hand every scheduler
call a view equal to it field for field *and in order*.  The same for
``incomplete_runs()`` (what admission's committed demands are built from)
against a scan of ``job_runs()``, and a count-based check that what
``view()`` returns follows the live jobs, not the jobs ever registered.
"""

from __future__ import annotations

import random

from repro.core.placement import JobDemand
from repro.model.cluster import ClusterCapacity
from repro.model.events import JobSetback
from repro.model.job import Job, JobKind
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.obs import Observability
from repro.schedulers.registry import make_scheduler
from repro.service import ServiceConfig, ServiceState
from repro.simulator.engine import SimulationConfig
from repro.simulator.failures import FailureModel
from repro.simulator.runtime import EngineCore
from repro.simulator.view import AdhocJobView, ClusterView, DeadlineJobView
from repro.workloads.recurring import RecurringWorkflow
from tests.conftest import adhoc_job, deadline_job

CLUSTER = ClusterCapacity(base=ResourceVector({CPU: 4, MEM: 8}))
SEEDS = range(240)
MAX_SLOTS = 300


def reference_view(core: EngineCore, arrived_by: int) -> ClusterView:
    """The full-scan ``EngineCore.view()`` of before the index: every
    registered run, minus those arriving after *arrived_by*, minus the
    completed ones (which every scheduler filtered out)."""
    slot = core.slot
    deadline_views = []
    adhoc_views = []
    for run in core.job_runs():
        job = run.job
        if run.arrival_slot > arrived_by or run.done:
            continue
        if job.kind is JobKind.DEADLINE:
            deadline_views.append(
                DeadlineJobView(
                    job_id=job.job_id,
                    workflow_id=job.workflow_id or "",
                    arrival_slot=run.arrival_slot,
                    ready=run.ready_at(slot),
                    est_spec=job.tasks,
                    executed_units=run.executed_units,
                    believed_remaining_units=run.believed_remaining_units(),
                )
            )
        else:
            adhoc_views.append(
                AdhocJobView(
                    job_id=job.job_id,
                    arrival_slot=run.arrival_slot,
                    unit_demand=job.execution_tasks.demand,
                    pending_units=min(
                        job.execution_tasks.count, run.true_remaining_units
                    ),
                )
            )
    return ClusterView(
        slot=slot,
        capacity=core.cluster,
        deadline_jobs=tuple(deadline_views),
        adhoc_jobs=tuple(adhoc_views),
        workflows={
            wid: workflow
            for wid, workflow in core.workflows.items()
            if core.job_run(workflow.jobs[0].job_id).arrival_slot <= arrived_by
        },
    )


def assert_matches_scan(core: EngineCore, view: ClusterView, arrived_by: int) -> None:
    # Frozen dataclasses in tuples: equal means every field, in order.
    assert view == reference_view(core, arrived_by)
    assert list(core.incomplete_runs()) == [
        run for run in core.job_runs() if not run.done
    ]


class Spy:
    """Checks every view the engine hands a scheduler, then delegates."""

    name = "spy"

    def __init__(self, inner):
        self.inner = inner
        self.core: EngineCore | None = None
        self.setbacks = 0
        self.views = 0

    def on_events(self, events, view) -> None:
        self.setbacks += sum(isinstance(event, JobSetback) for event in events)
        assert_matches_scan(self.core, view, arrived_by=view.slot)
        self.inner.on_events(events, view)

    def assign(self, view) -> dict:
        # Inside a step the slot's arrivals have been delivered: the old
        # scan's ``arrival_slot > slot`` rule, exactly.
        assert_matches_scan(self.core, view, arrived_by=view.slot)
        self.views += 1
        return self.inner.assign(view)


def random_workflow(rng: random.Random, wid: str, start: int) -> Workflow:
    jobs = [
        deadline_job(
            f"{wid}-j{i}",
            wid,
            count=rng.randint(1, 2),
            duration=rng.randint(1, 3),
            cores=rng.randint(1, 2),
            mem=2,
        )
        for i in range(rng.randint(1, 3))
    ]
    # A chain or a fan-out from the first job.
    chain = rng.random() < 0.5
    edges = [
        (jobs[i - 1 if chain else 0].job_id, jobs[i].job_id)
        for i in range(1, len(jobs))
    ]
    return Workflow.from_jobs(wid, jobs, edges, start, start + 40)


def random_adhoc(rng: random.Random, job_id: str, arrival: int) -> Job:
    return adhoc_job(
        job_id, arrival,
        count=rng.randint(1, 3), duration=rng.randint(1, 2), cores=1, mem=2,
    )


def drive(seed: int, coverage: dict[str, int]) -> None:
    rng = random.Random(seed)
    failures = (
        FailureModel(setback_prob=0.4, max_setback_units=3, seed=seed)
        if seed % 2
        else None
    )
    spy = Spy(make_scheduler(rng.choice(["FIFO", "EDF", "Fair"])))
    config = SimulationConfig(failures=failures, max_slots=MAX_SLOTS)
    core = spy.core = EngineCore(CLUSTER, spy, config, Observability())

    # Registered first, starts late — beside registered later, starts
    # early; then two arrivals in one slot, then ad-hoc jobs.
    core.add_workflow(random_workflow(rng, "late", rng.randint(4, 9)))
    core.add_workflow(random_workflow(rng, "early", 0))
    twin_start = rng.randint(0, 6)
    core.add_workflow(random_workflow(rng, "twin-a", twin_start))
    core.add_workflow(random_workflow(rng, "twin-b", twin_start))
    for i in range(rng.randint(0, 3)):
        core.add_adhoc(random_adhoc(rng, f"a{i}", rng.randint(0, 8)))

    registered = 0
    while not core.finished and core.slot < MAX_SLOTS:
        roll = rng.random()
        if roll < 0.2 and registered < 8:
            # The service path: registration between steps, arriving now
            # (declared start in the past or present) or later.
            registered += 1
            start = max(core.slot + rng.choice([-2, 0, 0, 3]), 0)
            if rng.random() < 0.6:
                core.add_workflow(random_workflow(rng, f"r{registered}", start))
            else:
                core.add_adhoc(random_adhoc(rng, f"r{registered}", start))
            coverage["registered between steps"] += 1
        elif roll < 0.4 and core.workflows:
            wid = rng.choice(sorted(core.workflows))
            first = core.workflows[wid].jobs[0].job_id
            delivered = core.job_run(first).arrival_slot < core.slot
            if not core.workflow_started(wid):
                core.remove_workflow(wid)
                coverage[
                    "withdrawn after delivery" if delivered
                    else "withdrawn before delivery"
                ] += 1
        # Between steps nothing arriving at ``core.slot`` is delivered yet.
        assert_matches_scan(core, core.view(), arrived_by=core.slot - 1)
        if rng.random() < 0.5 and core.skip_idle(MAX_SLOTS):
            coverage["idle jumps"] += 1
            continue
        core.step()
    core.flush_pending_events()
    assert core.finished
    coverage["setbacks"] += spy.setbacks
    coverage["views"] += spy.views


def test_view_equals_the_full_scan_on_seeded_random_runs():
    coverage = dict.fromkeys(
        (
            "registered between steps",
            "withdrawn before delivery",
            "withdrawn after delivery",
            "idle jumps",
            "setbacks",
            "views",
        ),
        0,
    )
    for seed in SEEDS:
        drive(seed, coverage)
    assert len(SEEDS) >= 200
    assert all(coverage.values()), coverage


def reference_committed_demands(state: ServiceState) -> list[JobDemand]:
    """``ServiceState.committed_demands()`` as it was: a walk of every
    registered run that drops the finished ones."""
    demands = []
    for run in state.core.job_runs():
        job = run.job
        if job.kind is not JobKind.DEADLINE or run.done:
            continue
        window = state.windows.get(job.job_id)
        if window is None:
            continue
        units = run.believed_remaining_units()
        if units <= 0:
            continue
        demands.append(JobDemand.in_window(window, job.tasks, units))
    return demands


def test_committed_demands_equal_the_full_scan():
    compared = withdrawn = 0
    for seed in range(40):
        rng = random.Random(seed)
        state = ServiceState(CLUSTER, ServiceConfig(scheduler="FIFO"))
        for n in range(30):
            roll = rng.random()
            slot = state.core.slot
            if roll < 0.35:
                start = slot + rng.choice([0, 0, 2, 6])
                state.submit("workflow", random_workflow(rng, f"w{n}", start))
            elif roll < 0.45:
                state.submit("adhoc", random_adhoc(rng, f"a{n}", slot))
            elif roll < 0.55 and state.core.workflows:
                wid = rng.choice(sorted(state.core.workflows))
                if not state.core.workflow_started(wid):
                    state.migrate_out(wid, "elsewhere", epoch=n + 1)
                    withdrawn += 1
            else:
                state.step()
            demands = state.committed_demands()
            assert demands == reference_committed_demands(state)
            compared += len(demands)
        state.run_out()
        assert state.committed_demands() == []
    assert compared > 1000 and withdrawn > 0


def _views_per_step(n_instances: int) -> tuple[list[int], int]:
    """Run *n_instances* of one recurring template (period longer than its
    window, one ad-hoc job per period); per executed slot, how many job
    views ``view()`` returned — checked against the jobs live then."""
    skeleton = Workflow.from_jobs(
        "nightly",
        [
            deadline_job(f"j{i}", "nightly", count=2, duration=2, cores=1, mem=2)
            for i in range(3)
        ],
        [("j0", "j1"), ("j0", "j2")],
        0,
        12,
    )
    recurring = RecurringWorkflow(skeleton, period_slots=20)
    counts: list[int] = []

    class Counting:
        name = "counting"
        inner = make_scheduler("FIFO")

        def on_events(self, events, view) -> None:
            pass

        def assign(self, view) -> dict:
            live = sum(
                1
                for run in core.job_runs()
                if run.arrival_slot <= view.slot and not run.done
            )
            n_views = len(view.deadline_jobs) + len(view.adhoc_jobs)
            assert n_views <= live
            counts.append(n_views)
            return self.inner.assign(view)

    core = EngineCore(CLUSTER, Counting(), SimulationConfig(), Observability())
    rng = random.Random(1)
    for index, workflow in enumerate(recurring.instances(n_instances)):
        core.add_workflow(workflow)
        core.add_adhoc(random_adhoc(rng, f"q{index}", workflow.start_slot + 1))
    limit = core.config.max_slots
    while not core.finished:
        if not core.skip_idle(limit):
            core.step()
    return counts, core.n_jobs


def test_views_per_step_follow_live_jobs_not_registered_jobs():
    few, few_jobs = _views_per_step(5)
    many, many_jobs = _views_per_step(50)
    assert many_jobs == 10 * few_jobs
    # Ten times the registered jobs over ten times the periods — and the
    # same bound on what any one step describes to the scheduler.
    assert len(many) > 5 * len(few)
    assert max(many) == max(few) <= 4
