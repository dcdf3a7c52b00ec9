"""Behavioural tests for the baseline schedulers (FIFO, Fair, EDF, CORA)."""

import pytest

from repro.model.workflow import Workflow
from repro.schedulers.cora import CoraScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.registry import (
    SCHEDULER_NAMES,
    available_schedulers,
    make_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from repro.simulator.engine import Simulation
from tests.conftest import adhoc_job, deadline_job


def one_job_wf(wid, start=0, deadline=60, **kwargs):
    return Workflow.from_jobs(wid, [deadline_job(f"{wid}-a", wid, **kwargs)], [], start, deadline)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in SCHEDULER_NAMES:
            scheduler = make_scheduler(name)
            assert hasattr(scheduler, "assign")

    def test_names_match_paper_legend(self):
        assert {"FlowTime", "CORA", "EDF", "Fair", "FIFO"} <= set(SCHEDULER_NAMES)

    def test_flowtime_no_ds_has_zero_slack(self):
        scheduler = make_scheduler("FlowTime_no_ds")
        assert scheduler.planner.config.slack_slots == 0
        assert scheduler.name == "FlowTime_no_ds"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_scheduler("SLURM")

    def test_register_and_unregister_custom_scheduler(self):
        register_scheduler("TestFifoClone", lambda **kw: FifoScheduler())
        try:
            assert "TestFifoClone" in available_schedulers()
            scheduler = make_scheduler("TestFifoClone")
            assert hasattr(scheduler, "assign")
        finally:
            unregister_scheduler("TestFifoClone")
        assert "TestFifoClone" not in available_schedulers()

    def test_register_duplicate_requires_overwrite(self):
        with pytest.raises(ValueError):
            register_scheduler("FIFO", lambda **kw: FifoScheduler())
        with pytest.raises(ValueError):
            unregister_scheduler("NoSuchScheduler")

    def test_available_matches_frozen_names_at_import(self):
        assert set(SCHEDULER_NAMES) <= set(available_schedulers())


class TestFifo:
    def test_earlier_submission_wins(self, tiny_cluster):
        # Two ad-hoc jobs that each want the whole 4-core cluster.
        first = adhoc_job("a", 0, count=4, duration=2, cores=1, mem=2)
        second = adhoc_job("b", 1, count=4, duration=2, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, FifoScheduler(), adhoc_jobs=[first, second]
        ).run()
        assert result.jobs["a"].completion_slot < result.jobs["b"].completion_slot

    def test_deadline_oblivious(self, tiny_cluster):
        # A loose-deadline workflow submitted first still hogs the cluster.
        wf = one_job_wf("w", deadline=1000, count=8, duration=2, cores=1, mem=2)
        late_adhoc = adhoc_job("a", 1, count=4, duration=1, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, FifoScheduler(), workflows=[wf], adhoc_jobs=[late_adhoc]
        ).run()
        assert result.jobs["w-a"].completion_slot <= result.jobs["a"].completion_slot


class TestFair:
    def test_equal_share_between_equal_jobs(self, tiny_cluster):
        # Two identical ad-hoc jobs arriving together on 4 cores: each gets
        # 2 cores/slot and they finish together.
        a = adhoc_job("a", 0, count=4, duration=2, cores=1, mem=2)
        b = adhoc_job("b", 0, count=4, duration=2, cores=1, mem=2)
        result = Simulation(tiny_cluster, FairScheduler(), adhoc_jobs=[a, b]).run()
        assert result.jobs["a"].completion_slot == result.jobs["b"].completion_slot

    def test_adhoc_not_starved_by_workflow(self, tiny_cluster):
        wf = one_job_wf("w", deadline=1000, count=16, duration=2, cores=1, mem=2)
        adhoc = adhoc_job("a", 0, count=2, duration=1, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, FairScheduler(), workflows=[wf], adhoc_jobs=[adhoc]
        ).run()
        # The ad-hoc job gets its fair share immediately and finishes long
        # before the big workflow job.
        assert result.jobs["a"].completion_slot < result.jobs["w-a"].completion_slot


class TestEdf:
    def test_earliest_workflow_deadline_first(self, tiny_cluster):
        urgent = one_job_wf("u", deadline=10, count=8, duration=1, cores=1, mem=2)
        relaxed = one_job_wf("r", deadline=500, count=8, duration=1, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, EdfScheduler(), workflows=[urgent, relaxed]
        ).run()
        assert (
            result.jobs["u-a"].completion_slot < result.jobs["r-a"].completion_slot
        )

    def test_adhoc_only_gets_leftovers(self, tiny_cluster):
        # Deadline work saturates the cluster; the ad-hoc job must wait —
        # exactly the Fig. 1 pathology.
        wf = one_job_wf("w", deadline=1000, count=12, duration=2, cores=1, mem=2)
        adhoc = adhoc_job("a", 0, count=2, duration=1, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, EdfScheduler(), workflows=[wf], adhoc_jobs=[adhoc]
        ).run()
        assert result.jobs["a"].completion_slot > result.jobs["w-a"].completion_slot - 1


class TestCora:
    def test_urgent_deadline_job_prioritised(self, tiny_cluster):
        urgent = one_job_wf("u", deadline=6, count=8, duration=1, cores=1, mem=2)
        relaxed = one_job_wf("r", deadline=2000, count=8, duration=1, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, CoraScheduler(), workflows=[urgent, relaxed]
        ).run()
        assert (
            result.jobs["u-a"].completion_slot <= result.jobs["r-a"].completion_slot
        )

    def test_waiting_adhoc_gains_priority(self, tiny_cluster):
        # With a very loose workflow, ad-hoc work should overtake it as its
        # waiting-time utility grows.
        wf = one_job_wf("w", deadline=4000, count=20, duration=2, cores=1, mem=2)
        adhoc = adhoc_job("a", 0, count=4, duration=1, cores=1, mem=2)
        result = Simulation(
            tiny_cluster, CoraScheduler(), workflows=[wf], adhoc_jobs=[adhoc]
        ).run()
        assert result.jobs["a"].completion_slot < result.jobs["w-a"].completion_slot

    def test_completes_mixed_load(self, small_cluster, chain3):
        adhocs = [adhoc_job(f"a{i}", i, count=2, duration=1) for i in range(5)]
        result = Simulation(
            small_cluster, CoraScheduler(), workflows=[chain3], adhoc_jobs=adhocs
        ).run()
        assert result.finished
