"""Tests for the full FlowTime scheduler (decomposition + LP + leftovers)."""

from repro.core.placement import PlannerConfig
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import missed_jobs, missed_workflows
from tests.conftest import adhoc_job
from repro.workloads.dag_generators import chain_workflow, fork_join_workflow


def flowtime(slack=0, **kwargs):
    return FlowTimeScheduler(PlannerConfig(slack_slots=slack), **kwargs)


class TestDeadlines:
    def test_meets_loose_workflow_deadline(self, small_cluster, chain3):
        scheduler = flowtime()
        result = Simulation(small_cluster, scheduler, workflows=[chain3]).run()
        assert result.finished
        assert missed_workflows(result) == []
        assert missed_jobs(result, scheduler.windows) == []

    def test_meets_decomposed_job_deadlines_under_contention(self, small_cluster):
        workflows = [
            fork_join_workflow(f"w{i}", 4, 0, 120) for i in range(2)
        ]
        scheduler = flowtime()
        result = Simulation(small_cluster, scheduler, workflows=workflows).run()
        assert missed_jobs(result, scheduler.windows) == []

    def test_windows_published_after_arrival(self, small_cluster, chain3):
        scheduler = flowtime()
        Simulation(small_cluster, scheduler, workflows=[chain3]).run()
        assert set(scheduler.windows) == set(chain3.job_ids)


class TestAdhocBehaviour:
    def test_loose_deadline_defers_to_adhoc(self, tiny_cluster):
        """The Fig. 1 story: with a loose deadline, ad-hoc jobs are served
        immediately instead of waiting behind the workflow."""
        wf = chain_workflow("w", 2, 0, 200)
        adhoc = adhoc_job("a", 0, count=4, duration=1, cores=1, mem=2)
        scheduler = flowtime()
        result = Simulation(
            tiny_cluster, scheduler, workflows=[wf], adhoc_jobs=[adhoc]
        ).run()
        # The ad-hoc job finishes quickly despite the deadline work...
        assert result.jobs["a"].turnaround_slots() <= 4
        # ...and the workflow still meets its deadline.
        assert missed_workflows(result) == []

    def test_work_conserving_uses_idle_capacity(self, small_cluster, chain3):
        eager = flowtime(work_conserving=True)
        lazy = flowtime(work_conserving=False)
        fast = Simulation(small_cluster, eager, workflows=[chain3]).run()
        slow = Simulation(small_cluster, lazy, workflows=[chain3]).run()
        # With no ad-hoc jobs, work conservation can only speed things up.
        assert (
            fast.workflows["c"].completion_slot
            <= slow.workflows["c"].completion_slot
        )


class TestReplanning:
    def test_replans_on_deadline_events_only(self, small_cluster, chain3):
        scheduler = flowtime()
        adhocs = [adhoc_job(f"a{i}", 10 + i, count=1, duration=1) for i in range(5)]
        Simulation(
            small_cluster, scheduler, workflows=[chain3], adhoc_jobs=adhocs
        ).run()
        # 1 workflow arrival + 2 readiness + (completions) — far fewer than
        # one re-plan per slot or per ad-hoc arrival.
        assert scheduler.replans <= 8

    def test_handles_workflows_arriving_late(self, small_cluster):
        early = chain_workflow("e", 2, 0, 80)
        late = chain_workflow("l", 2, 30, 120)
        scheduler = flowtime()
        result = Simulation(small_cluster, scheduler, workflows=[early, late]).run()
        assert result.finished
        assert missed_workflows(result) == []


class TestEstimationRobustness:
    def test_underestimated_jobs_still_finish(self, small_cluster):
        from repro.estimation.errors import ErrorModel, apply_workflow_estimation_errors

        wf = chain_workflow("w", 3, 0, 150)
        wf = apply_workflow_estimation_errors(wf, ErrorModel(low=1.5, high=1.5))
        scheduler = flowtime(slack=4)
        result = Simulation(small_cluster, scheduler, workflows=[wf]).run()
        assert result.finished
        # The workflow deadline is loose enough that re-planning absorbs a
        # 1.5x underestimate.
        assert missed_workflows(result) == []

    def test_overestimated_jobs_finish_early(self, small_cluster):
        from repro.estimation.errors import ErrorModel, apply_workflow_estimation_errors

        wf = chain_workflow("w", 3, 0, 150)
        wf = apply_workflow_estimation_errors(wf, ErrorModel(low=0.5, high=0.5))
        scheduler = flowtime()
        result = Simulation(small_cluster, scheduler, workflows=[wf]).run()
        assert result.finished
        assert missed_workflows(result) == []


class TestDegradedMode:
    def test_overcommitted_cluster_still_progresses(self, tiny_cluster):
        # Workload far beyond the tiny cluster with a hopeless deadline;
        # FlowTime must degrade gracefully, not deadlock.
        wf = chain_workflow(
            "w", 2, 0, 4,
        )
        scheduler = flowtime()
        result = Simulation(
            tiny_cluster, scheduler, workflows=[wf],
            config=SimulationConfig(max_slots=500),
        ).run()
        assert result.finished  # late, but done
