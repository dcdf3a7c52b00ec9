"""Tests for the slot-based simulation engine."""

import pytest

from repro.model.job import Job, JobKind
from repro.model.resources import CPU
from repro.model.workflow import Workflow
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FifoScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from tests.conftest import adhoc_job, deadline_job, spec


class GreedyAll(Scheduler):
    """Grants every runnable job as much as fits, in sorted order."""

    name = "greedy"

    def assign(self, view):
        leftover = view.capacity_now()
        grants = {}
        for job in sorted(view.runnable_deadline_jobs(), key=lambda j: j.job_id):
            units = self.grant_deadline_job(job, leftover)
            if units:
                grants[job.job_id] = units
                leftover = leftover.saturating_sub(job.unit_demand * units)
        self.serve_adhoc_fifo(view, leftover, grants)
        return grants


class TestBasicExecution:
    def test_single_adhoc_job_runs_to_completion(self, small_cluster):
        job = adhoc_job("a", arrival=0, count=4, duration=2)
        sim = Simulation(small_cluster, GreedyAll(), adhoc_jobs=[job])
        result = sim.run()
        assert result.finished
        record = result.jobs["a"]
        # 8 task-slots with parallelism 4 -> 2 slots.
        assert record.completion_slot == 1
        assert record.turnaround_slots() == 2

    def test_arrival_delays_start(self, small_cluster):
        job = adhoc_job("a", arrival=5, count=2, duration=1)
        result = Simulation(small_cluster, GreedyAll(), adhoc_jobs=[job]).run()
        assert result.jobs["a"].completion_slot == 5

    def test_workflow_dependencies_serialise(self, small_cluster, chain3):
        result = Simulation(small_cluster, GreedyAll(), workflows=[chain3]).run()
        assert result.finished
        j0, j1, j2 = (result.jobs[f"c-j{i}"] for i in range(3))
        # Each job: 8 task-slots, parallelism 4 -> 2 slots each, serialised.
        assert j0.completion_slot < j1.ready_slot <= j1.completion_slot
        assert j1.completion_slot < j2.ready_slot <= j2.completion_slot
        assert result.workflows["c"].completion_slot == j2.completion_slot

    def test_parallel_jobs_share_the_cluster(self, small_cluster, fork4):
        result = Simulation(small_cluster, GreedyAll(), workflows=[fork4]).run()
        assert result.finished
        middles = [result.jobs[f"f-j{i}"] for i in range(1, 5)]
        ready = {m.ready_slot for m in middles}
        assert len(ready) == 1  # all released together

    def test_workflow_start_slot_gates_arrival(self, small_cluster):
        jobs = [deadline_job("w-a", "w")]
        wf = Workflow.from_jobs("w", jobs, [], 10, 60)
        result = Simulation(small_cluster, GreedyAll(), workflows=[wf]).run()
        assert result.jobs["w-a"].ready_slot == 10


class TestEstimationErrors:
    def test_true_structure_drives_execution(self, small_cluster):
        est = spec(count=4, duration=2)
        true = spec(count=4, duration=4)  # truly twice as long
        job = Job(job_id="a", tasks=est, kind=JobKind.ADHOC, arrival_slot=0, true_tasks=true)
        result = Simulation(small_cluster, GreedyAll(), adhoc_jobs=[job]).run()
        record = result.jobs["a"]
        assert record.true_units == 16
        assert record.est_units == 8
        assert record.completion_slot == 3  # 16 units at parallelism 4


class TestValidation:
    def test_rejects_duplicate_ids(self, small_cluster):
        with pytest.raises(ValueError):
            Simulation(
                small_cluster,
                GreedyAll(),
                adhoc_jobs=[adhoc_job("a", 0), adhoc_job("a", 1)],
            )

    def test_rejects_deadline_job_in_adhoc_list(self, small_cluster):
        job = deadline_job("w-a", "w")
        with pytest.raises(ValueError):
            Simulation(small_cluster, GreedyAll(), adhoc_jobs=[job])

    def test_rejects_task_larger_than_cluster(self, tiny_cluster):
        job = adhoc_job("a", 0, cores=100)
        with pytest.raises(ValueError):
            Simulation(tiny_cluster, GreedyAll(), adhoc_jobs=[job])

    def test_strict_mode_rejects_unknown_grants(self, small_cluster):
        class Bad(Scheduler):
            name = "bad"

            def assign(self, view):
                return {"ghost": 1}

        job = adhoc_job("a", 0)
        with pytest.raises(ValueError, match="unknown job"):
            Simulation(small_cluster, Bad(), adhoc_jobs=[job]).run()

    def test_strict_mode_rejects_over_capacity(self, tiny_cluster):
        class Hog(Scheduler):
            name = "hog"

            def assign(self, view):
                return {j.job_id: 100 for j in view.adhoc_jobs}

        job = adhoc_job("a", 0, count=100, cores=1, mem=1)
        with pytest.raises(ValueError, match="exceeding capacity"):
            Simulation(tiny_cluster, Hog(), adhoc_jobs=[job]).run()

    def test_strict_mode_rejects_grant_to_unready_job(self, small_cluster, chain3):
        class Eager(Scheduler):
            name = "eager"

            def assign(self, view):
                # Grants to every deadline job, ready or not.
                return {j.job_id: 1 for j in view.deadline_jobs}

        with pytest.raises(ValueError, match="not ready"):
            Simulation(small_cluster, Eager(), workflows=[chain3]).run()


class TestTruncation:
    def test_max_slots_stops_unfinished(self, small_cluster):
        class Lazy(Scheduler):
            name = "lazy"

            def assign(self, view):
                return {}

        job = adhoc_job("a", 0)
        config = SimulationConfig(max_slots=5)
        result = Simulation(small_cluster, Lazy(), adhoc_jobs=[job], config=config).run()
        assert not result.finished
        assert result.n_slots == 5
        assert result.jobs["a"].completion_slot is None


class TestAccounting:
    def test_usage_tracks_true_consumption(self, small_cluster):
        job = adhoc_job("a", 0, count=4, duration=1, cores=2, mem=4)
        result = Simulation(small_cluster, GreedyAll(), adhoc_jobs=[job]).run()
        cpu_col = result.resources.index(CPU)
        assert result.usage[0, cpu_col] == 8  # 4 tasks x 2 cores

    def test_events_reach_scheduler(self, small_cluster, chain3):
        seen = []

        class Recorder(FifoScheduler):
            def on_events(self, events, view):
                seen.extend(type(e).__name__ for e in events)

        Simulation(small_cluster, Recorder(), workflows=[chain3]).run()
        assert "WorkflowArrived" in seen
        assert "JobReady" in seen
        assert "JobCompleted" in seen
        assert "WorkflowCompleted" in seen

    def test_planning_time_recorded(self, small_cluster):
        job = adhoc_job("a", 0)
        result = Simulation(small_cluster, GreedyAll(), adhoc_jobs=[job]).run()
        assert result.planning_calls == result.n_slots
        assert result.planning_seconds >= 0.0

    def test_planning_calls_count_executed_slots_only(self, small_cluster):
        jobs = [adhoc_job("a", 0), adhoc_job("late", 40)]
        result = Simulation(small_cluster, GreedyAll(), adhoc_jobs=jobs).run()
        skipped = result.counter_value("sim.slots.skipped")
        assert skipped > 30
        assert result.planning_calls == result.n_slots - skipped
