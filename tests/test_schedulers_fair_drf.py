"""Tests for the Fair scheduler's unit round robin and the planning column."""

from repro.analysis.experiments import run_comparison
from repro.analysis.reporting import format_comparison_table
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.schedulers.fair import FairScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.workloads.traces import generate_trace


def job(job_id, arrival, count, duration, cores, mem):
    return Job(
        job_id=job_id,
        tasks=TaskSpec(
            count=count,
            duration_slots=duration,
            demand=ResourceVector({CPU: cores, MEM: mem}),
        ),
        kind=JobKind.ADHOC,
        arrival_slot=arrival,
    )


class TestDrfMode:
    def test_plain_fair_unit_round_robin(self):
        cluster = ClusterCapacity.uniform(cpu=12, mem=12)
        a = job("a", 0, count=12, duration=4, cores=1, mem=1)
        b = job("b", 0, count=12, duration=4, cores=1, mem=1)
        result = Simulation(
            cluster,
            FairScheduler(),
            adhoc_jobs=[a, b],
            config=SimulationConfig(record_execution=True),
        ).run()
        first = result.execution[0]
        assert first.get("a", 0) == first.get("b", 0)


class TestPlanningColumn:
    def test_planning_column_appended(self, small_cluster):
        trace = generate_trace(
            n_workflows=1, jobs_per_workflow=3, n_adhoc=3,
            capacity=small_cluster, seed=2,
        )
        comparison = run_comparison(trace, small_cluster, ["FlowTime", "FIFO"])
        plain = format_comparison_table(comparison)
        with_planning = format_comparison_table(comparison, planning=True)
        assert "plan (ms/call)" not in plain
        assert "plan (ms/call)" in with_planning
        # FlowTime (LP) spends more per call than FIFO (greedy).
        rows = {
            line.split()[0]: line
            for line in with_planning.splitlines()[2:]
        }
        ft_ms = float(rows["FlowTime"].split()[-1])
        fifo_ms = float(rows["FIFO"].split()[-1])
        assert ft_ms > fifo_ms
