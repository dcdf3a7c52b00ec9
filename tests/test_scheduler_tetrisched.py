"""Tests for the TetriSched-style baseline."""

from repro.schedulers.tetrisched import TetriSchedScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.failures import FailureModel
from repro.simulator.metrics import missed_workflows
from repro.workloads.dag_generators import chain_workflow, fork_join_workflow
from tests.conftest import adhoc_job


class TestRigidBlocks:
    def test_single_job_runs_contiguously_at_full_width(self, small_cluster):
        """A rigid block: once started, the job runs at full parallelism
        until done (24 task-slots at width 8 = 3 consecutive slots)."""
        wf = chain_workflow("w", 1, 0, 100)
        scheduler = TetriSchedScheduler()
        result = Simulation(
            small_cluster,
            scheduler,
            workflows=[wf],
            config=SimulationConfig(record_execution=True),
        ).run()
        executed = [row.get("w-j0", 0) for row in result.execution]
        active = [u for u in executed if u]
        assert active == [8, 8, 8]

    def test_meets_loose_deadlines(self, small_cluster):
        workflows = [fork_join_workflow(f"w{i}", 3, 0, 150) for i in range(2)]
        scheduler = TetriSchedScheduler()
        result = Simulation(small_cluster, scheduler, workflows=workflows).run()
        assert result.finished
        assert missed_workflows(result) == []

    def test_narrower_block_when_cluster_contended(self, tiny_cluster):
        # 8 tasks of 2 cores on a 4-core cluster: full width (8) never fits;
        # the adaptive width search settles on 2 tasks at a time.
        wf = chain_workflow(
            "w",
            1,
            0,
            200,
            spec_of=__import__("tests.conftest", fromlist=["spec"]).spec(
                count=8, duration=2, cores=2, mem=2
            ),
        )
        result = Simulation(tiny_cluster, TetriSchedScheduler(), workflows=[wf]).run()
        assert result.finished


class TestIntegration:
    def test_serves_adhoc_with_leftovers(self, small_cluster):
        wf = chain_workflow("w", 2, 0, 300)
        adhoc = adhoc_job("a", 0, count=2, duration=1)
        result = Simulation(
            small_cluster, TetriSchedScheduler(), workflows=[wf], adhoc_jobs=[adhoc]
        ).run()
        assert result.jobs["a"].turnaround_slots() <= 5

    def test_survives_failures(self, small_cluster):
        wf = chain_workflow("w", 3, 0, 400)
        config = SimulationConfig(
            failures=FailureModel(setback_prob=0.4, seed=2), max_slots=3000
        )
        result = Simulation(
            small_cluster, TetriSchedScheduler(), workflows=[wf], config=config
        ).run()
        assert result.finished

    def test_plan_ahead_window_exceeded_work_still_finishes(self, small_cluster):
        # Deadline far beyond the plan-ahead window forces plan renewal.
        wf = chain_workflow("w", 2, 0, 5000)
        scheduler = TetriSchedScheduler()
        result = Simulation(small_cluster, scheduler, workflows=[wf]).run()
        assert result.finished
