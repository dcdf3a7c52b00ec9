"""Tests for the online scheduler service core (no HTTP).

Determinism notes: submissions enqueued with ``wait=False`` *before*
``start()`` are all processed, in order, before the event loop's first
step — the virtual clock is still at slot 0, so the whole burst lands in
one arrival slot regardless of wall-clock timing.  That is how these tests
exercise batching without sleeping.
"""

import math

import pytest

import repro.core.admission as admission_module
import repro.service.state as service_module
from repro.core.admission import check_admission
from repro.core.decomposition import decompose_deadline
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, TaskSpec
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.obs import MemorySink, Observability
from repro.service import SchedulerService, ServiceConfig
from repro.simulator.engine import Simulation
from tests.conftest import adhoc_job, deadline_job


@pytest.fixture
def cluster() -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=40, mem=80)


def chain(wid: str, n: int = 3, start: int = 0, deadline: int = 60) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid) for i in range(n)]
    edges = [(f"{wid}-j{i}", f"{wid}-j{i+1}") for i in range(n - 1)]
    return Workflow.from_jobs(wid, jobs, edges, start, deadline)


def impossible_workflow(wid: str) -> Workflow:
    # 10 serial slots of work in a 5-slot window: infeasible even alone.
    job = Job(
        job_id=f"{wid}-big",
        tasks=TaskSpec(
            count=2, duration_slots=10, demand=ResourceVector(cpu=2, mem=4)
        ),
        workflow_id=wid,
    )
    return Workflow.from_jobs(wid, [job], [], 0, 5)


def run_service(cluster, submissions, config=None, obs=None):
    """Enqueue everything before start, then run to drain."""
    service = SchedulerService(cluster, config or ServiceConfig(), obs=obs)
    futures = []
    for kind, payload in submissions:
        submit = (
            service.submit_workflow if kind == "wf" else service.submit_adhoc
        )
        futures.append(submit(payload, wait=False))
    service.start()
    results = [f.result(timeout=30) for f in futures]
    final = service.drain(timeout=60)
    return service, results, final


class TestSubmitAndDrain:
    def test_workflow_runs_to_completion(self, cluster):
        service, results, final = run_service(
            cluster, [("wf", chain("c"))]
        )
        assert results[0].accepted and results[0].reason == "admitted"
        assert final.finished
        assert final.workflows["c"].met_deadline

    def test_adhoc_job_queued_and_completed(self, cluster):
        service, results, final = run_service(
            cluster, [("adhoc", adhoc_job("a", arrival=0))]
        )
        assert results[0].accepted and results[0].reason == "queued"
        assert final.jobs["a"].completion_slot is not None

    def test_drain_loses_no_accepted_work(self, cluster):
        submissions = [("wf", chain(f"w{i}", deadline=80)) for i in range(3)]
        submissions += [("adhoc", adhoc_job(f"a{i}", arrival=0)) for i in range(4)]
        service, results, final = run_service(cluster, submissions)
        assert all(r.accepted for r in results)
        assert final.finished
        # Every accepted submission appears, completed, in the final result.
        for i in range(3):
            assert final.workflows[f"w{i}"].met_deadline
        for i in range(4):
            assert final.jobs[f"a{i}"].completion_slot is not None

    def test_drain_is_idempotent(self, cluster):
        service, _, final = run_service(cluster, [("wf", chain("c"))])
        assert service.drain() is final
        assert service.result() is final

    def test_submit_after_stop_raises(self, cluster):
        service, _, _ = run_service(cluster, [])
        with pytest.raises(RuntimeError):
            service.submit_workflow(chain("late"))

    def test_status_reflects_counts(self, cluster):
        service, _, _ = run_service(
            cluster,
            [("wf", chain("c")), ("adhoc", adhoc_job("a", arrival=0))],
        )
        status = service.status()
        assert not status.running and status.draining
        assert status.accepted_workflows == 1
        assert status.accepted_adhoc == 1
        assert status.remaining_jobs == 0
        assert status.scheduler == "FlowTime"


class TestAdmission:
    def test_infeasible_workflow_rejected(self, cluster):
        service, results, final = run_service(
            cluster, [("wf", impossible_workflow("x"))]
        )
        assert not results[0].accepted
        assert results[0].reason == "infeasible"
        assert results[0].shortfall_units
        assert "x" not in final.workflows

    def test_rejected_workflow_consumes_no_capacity(self, cluster):
        # Reject x, then admit a feasible one: x must not haunt the books.
        service, results, _ = run_service(
            cluster,
            [("wf", impossible_workflow("x")), ("wf", chain("c"))],
        )
        assert not results[0].accepted
        assert results[1].accepted

    def test_admission_off_admits_everything(self, cluster):
        service, results, final = run_service(
            cluster,
            [("wf", impossible_workflow("x"))],
            config=ServiceConfig(admission=False),
        )
        assert results[0].accepted
        # It was admitted, ran, and (necessarily) missed its deadline.
        assert not final.workflows["x"].met_deadline

    def test_duplicate_workflow_invalid(self, cluster):
        service, results, _ = run_service(
            cluster, [("wf", chain("c")), ("wf", chain("c"))]
        )
        assert results[0].accepted
        assert not results[1].accepted and results[1].reason == "invalid"

    def test_proof_and_commit_are_one_decomposition(self, cluster, monkeypatch):
        # 40 two-slot tasks need two waves on this cluster, so the
        # cluster-aware decomposition gives j0 a slot more than the paper's.
        jobs = [
            deadline_job("w-j0", "w", count=40),
            deadline_job("w-j1", "w", count=20),
        ]
        workflow = Workflow.from_jobs("w", jobs, [("w-j0", "w-j1")], 0, 30)
        paper = decompose_deadline(workflow, cluster, cluster_aware=False).windows
        assert paper != decompose_deadline(workflow, cluster).windows

        decompositions, decisions = [], []

        def counted(*args, **kwargs):
            decompositions.append(kwargs)
            return decompose_deadline(*args, **kwargs)

        def recorded(*args, **kwargs):
            decisions.append(check_admission(*args, **kwargs))
            return decisions[-1]

        # The submission path's two by-name imports (the scheduler's own
        # decomposition on arrival is not on it).
        monkeypatch.setattr(admission_module, "decompose_deadline", counted)
        monkeypatch.setattr(service_module, "decompose_deadline", counted)
        monkeypatch.setattr(service_module, "check_admission", recorded)
        # One setting — the scheduler's — decides proof, commit and plan.
        service = SchedulerService(
            cluster,
            ServiceConfig(
                scheduler_kwargs={"cluster_aware_decomposition": False},
                realtime=True,
                slot_seconds=3600.0,
            ),
        ).start()
        try:
            assert service.submit_workflow(workflow).accepted
            committed = {job_id: service.state.windows[job_id] for job_id in paper}
            submission_path = len(decompositions)
        finally:
            # The drain delivers the arrival: the scheduler decomposes too.
            service.drain(timeout=60)
        planned = {job_id: service.scheduler.windows[job_id] for job_id in paper}
        assert submission_path == 1
        assert planned == committed == paper == decisions[0].windows

    def test_admitted_set_is_jointly_feasible(self, cluster):
        # Saturating stream: whatever subset gets in must all meet its
        # deadline (admission promised feasibility; the planner delivers).
        tight = [
            ("wf", chain(f"t{i}", n=4, deadline=14)) for i in range(8)
        ]
        service, results, final = run_service(cluster, tight)
        accepted = [r.id for r in results if r.accepted]
        assert accepted  # the first one always fits an empty cluster
        assert final.finished
        for wid in accepted:
            assert final.workflows[wid].met_deadline, wid


class TestBackpressure:
    def test_adhoc_shed_beyond_queue_limit(self, cluster):
        submissions = [("adhoc", adhoc_job(f"a{i}", arrival=0)) for i in range(6)]
        service, results, _ = run_service(
            cluster,
            submissions,
            config=ServiceConfig(adhoc_queue_limit=4),
        )
        accepted = [r for r in results if r.accepted]
        shed = [r for r in results if r.reason == "queue_full"]
        assert len(accepted) == 4
        assert len(shed) == 2
        status = service.status()
        assert status.accepted_adhoc == 4
        assert status.shed_adhoc == 2

    def test_queue_depth_reported_on_accept(self, cluster):
        submissions = [("adhoc", adhoc_job(f"a{i}", arrival=0)) for i in range(3)]
        _, results, _ = run_service(cluster, submissions)
        assert [r.queue_depth for r in results] == [1, 2, 3]

    def test_shed_counter_in_metrics(self, cluster):
        submissions = [("adhoc", adhoc_job(f"a{i}", arrival=0)) for i in range(3)]
        service, _, _ = run_service(
            cluster, submissions, config=ServiceConfig(adhoc_queue_limit=1)
        )
        metrics = service.metrics()
        assert metrics["service.queue.shed"]["value"] == 2.0


class TestBatchedReplanning:
    def test_burst_coalesces_into_one_replan(self, cluster):
        # 5 workflows submitted as a burst: all arrive in slot 0, so the
        # scheduler sees ONE arrival batch -> one plan ladder, not five.
        submissions = [("wf", chain(f"w{i}", deadline=90)) for i in range(5)]
        service, results, final = run_service(cluster, submissions)
        assert all(r.accepted for r in results)
        metrics = service.metrics()
        hist = metrics["service.replan.batch_size"]
        assert hist["p50"] > 1  # acceptance criterion: p50 batch size > 1
        assert hist["max"] == 5.0
        # Fewer plan calls than submissions.
        assert service.status().replans < len(submissions)

    def test_spread_arrivals_batch_of_one(self, cluster):
        # Start slots 10 slots apart: each arrival is its own batch.
        submissions = [
            ("wf", chain(f"w{i}", start=10 * i, deadline=60 + 10 * i))
            for i in range(3)
        ]
        service, _, _ = run_service(cluster, submissions)
        hist = service.metrics()["service.replan.batch_size"]
        assert hist["count"] == 3.0
        assert hist["max"] == 1.0

    def test_batch_window_validates(self):
        with pytest.raises(ValueError):
            ServiceConfig(batch_window_s=-1.0)

    def test_live_batch_window_coalesces_sequential_submits(self, cluster):
        # Submissions arriving while the service runs, each well inside the
        # 2 s window of the previous one: the window holds the virtual
        # clock, so all three land in one arrival slot -> one re-plan.
        service = SchedulerService(
            cluster, ServiceConfig(batch_window_s=2.0)
        ).start()
        try:
            for i in range(3):
                assert service.submit_workflow(chain(f"w{i}", deadline=90)).accepted
        finally:
            final = service.drain(timeout=60)
        assert final.finished
        hist = service.metrics()["service.replan.batch_size"]
        assert hist["max"] == 3.0
        assert hist["count"] == 1.0


class TestOutcomeEquivalence:
    def test_service_matches_batch_simulator(self, cluster):
        # The same workload through the service and through the batch
        # Simulation must complete identically: same completion slots,
        # same deadline outcomes.  Both paths drive the same EngineCore.
        def workload():
            wfs = [chain(f"w{i}", start=5 * i, deadline=70 + 5 * i) for i in range(3)]
            jobs = [adhoc_job(f"a{i}", arrival=2 * i) for i in range(5)]
            return wfs, jobs

        from repro.schedulers.registry import make_scheduler

        wfs, jobs = workload()
        batch = Simulation(
            cluster, make_scheduler("FlowTime"), workflows=wfs, adhoc_jobs=jobs
        ).run()

        wfs, jobs = workload()
        submissions = [("wf", w) for w in wfs] + [("adhoc", j) for j in jobs]
        _, results, served = run_service(cluster, submissions)

        assert all(r.accepted for r in results)
        assert served.finished and batch.finished
        assert served.n_slots == batch.n_slots
        for wid, record in batch.workflows.items():
            assert served.workflows[wid].completion_slot == record.completion_slot
            assert served.workflows[wid].met_deadline == record.met_deadline
        for job_id, record in batch.jobs.items():
            assert served.jobs[job_id].completion_slot == record.completion_slot


class TestObservability:
    def test_trace_flushed_on_drain(self, cluster):
        sink = MemorySink()
        obs = Observability(sink=sink)
        run_service(cluster, [("wf", chain("c"))], obs=obs)
        types = {event["type"] for event in sink.events}
        assert "service_start" in types
        assert "service_drain_start" in types
        assert "run_end" in types
        assert "workflow_completed" in types
        assert "service_stop" in types

    def test_queue_depth_gauge_exists(self, cluster):
        service, _, _ = run_service(
            cluster, [("adhoc", adhoc_job("a", arrival=0))]
        )
        metrics = service.metrics()
        assert metrics["service.queue.depth"]["value"] == 0.0  # drained

    def test_plan_snapshot_shape(self, cluster):
        service, _, _ = run_service(cluster, [("wf", chain("c"))])
        plan = service.plan()
        assert set(plan) >= {"origin_slot", "horizon", "jobs"}

    def test_utilisation_survives_json_round_trip(self, cluster):
        _, results, _ = run_service(cluster, [("wf", chain("c"))])
        from repro.service import SubmitResult

        again = SubmitResult.from_dict(results[0].to_dict())
        assert again.utilisation == pytest.approx(results[0].utilisation)
        nan_round = SubmitResult.from_dict(
            SubmitResult(accepted=True, kind="adhoc", id="a", reason="queued").to_dict()
        )
        assert math.isnan(nan_round.utilisation)
