"""Remaining coverage gaps: reporting edges, engine ordering details,
registry kwargs plumbing."""

import pytest

from repro.analysis.experiments import run_comparison
from repro.analysis.reporting import turnaround_ratios
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulator.engine import Simulation
from repro.workloads.dag_generators import chain_workflow
from repro.workloads.traces import generate_trace
from tests.conftest import adhoc_job


class TestReportingEdges:
    def test_zero_baseline_rejected(self, small_cluster):
        trace = generate_trace(
            n_workflows=1, jobs_per_workflow=2, n_adhoc=0,
            capacity=small_cluster, seed=1,
        )
        comparison = run_comparison(trace, small_cluster, ["FlowTime"])
        with pytest.raises(ValueError):
            turnaround_ratios(comparison)  # no ad-hoc jobs -> zero baseline


class TestRegistryKwargs:
    def test_planner_kwargs_forwarded(self):
        scheduler = make_scheduler(
            "FlowTime", planner={"slack_slots": 2, "max_lexmin_rounds": 1}
        )
        assert scheduler.planner.config.slack_slots == 2
        assert scheduler.planner.config.max_lexmin_rounds == 1

    def test_scheduler_kwargs_forwarded(self):
        scheduler = make_scheduler("FlowTime", work_conserving=False)
        assert scheduler.work_conserving is False


class TestEngineOrdering:
    def test_workflow_and_adhoc_same_slot(self, small_cluster):
        """Arrivals in the same slot are all visible to the scheduler."""
        seen = {}

        class Spy(FifoScheduler):
            def assign(self, view):
                seen.setdefault(view.slot, (len(view.deadline_jobs), len(view.adhoc_jobs)))
                return super().assign(view)

        wf = chain_workflow("w", 1, 2, 60)
        job = adhoc_job("a", 2)
        Simulation(small_cluster, Spy(), workflows=[wf], adhoc_jobs=[job]).run()
        assert seen[2] == (1, 1)

    def test_simplex_backend_end_to_end(self, small_cluster, simplex_solver):
        """FlowTime driven entirely by the reference simplex."""
        from repro.core.placement import PlannerConfig
        from repro.schedulers.flowtime_sched import FlowTimeScheduler
        from repro.simulator.metrics import missed_workflows

        wf = chain_workflow("w", 2, 0, 80)
        scheduler = FlowTimeScheduler(PlannerConfig(max_lexmin_rounds=1))
        result = Simulation(small_cluster, scheduler, workflows=[wf]).run()
        assert result.finished
        assert missed_workflows(result) == []
