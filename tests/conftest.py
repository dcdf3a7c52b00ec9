"""Shared fixtures: small clusters, canonical workflows, quick traces."""

from __future__ import annotations

import pytest

from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow


@pytest.fixture
def small_cluster() -> ClusterCapacity:
    """A 40-core / 80-GB cluster: big enough to schedule, small enough to
    contend."""
    return ClusterCapacity.uniform(cpu=40, mem=80)


@pytest.fixture
def tiny_cluster() -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=4, mem=8)


@pytest.fixture
def simplex_solver(monkeypatch) -> None:
    """Every ``solve_lp`` answers from the reference simplex, not HiGHS."""
    from repro.lp import scipy_backend
    from tests import simplex

    monkeypatch.setattr(scipy_backend, "solve", simplex.solve)


def spec(count: int = 4, duration: int = 2, cores: int = 2, mem: int = 4) -> TaskSpec:
    return TaskSpec(
        count=count,
        duration_slots=duration,
        demand=ResourceVector({CPU: cores, MEM: mem}),
    )


def deadline_job(job_id: str, workflow_id: str, **kwargs) -> Job:
    return Job(
        job_id=job_id,
        tasks=spec(**kwargs),
        kind=JobKind.DEADLINE,
        workflow_id=workflow_id,
    )


def adhoc_job(job_id: str, arrival: int, **kwargs) -> Job:
    return Job(
        job_id=job_id,
        tasks=spec(**kwargs),
        kind=JobKind.ADHOC,
        arrival_slot=arrival,
    )


def straddling_workflow(workflow_id: str, deadline: int = 90) -> Workflow:
    """A cpu-heavy job, then a mem-heavy one: on a cpu=16/mem=32 cluster
    neither resource's capacity row implies the other's, so admission
    needs its LP route."""
    jobs = [
        deadline_job(f"{workflow_id}-j0", workflow_id, cores=4, mem=2),
        deadline_job(f"{workflow_id}-j1", workflow_id, cores=1, mem=8),
    ]
    edge = (f"{workflow_id}-j0", f"{workflow_id}-j1")
    return Workflow.from_jobs(workflow_id, jobs, [edge], 0, deadline)


@pytest.fixture
def chain3() -> Workflow:
    """j0 -> j1 -> j2, window of 60 slots."""
    jobs = [deadline_job(f"c-j{i}", "c") for i in range(3)]
    return Workflow.from_jobs(
        "c", jobs, [("c-j0", "c-j1"), ("c-j1", "c-j2")], 0, 60
    )


@pytest.fixture
def fork4() -> Workflow:
    """The Fig. 3 shape with 4 parallel middles: j0 -> {j1..j4} -> j5."""
    jobs = [deadline_job(f"f-j{i}", "f") for i in range(6)]
    edges = [("f-j0", f"f-j{i}") for i in range(1, 5)] + [
        (f"f-j{i}", "f-j5") for i in range(1, 5)
    ]
    return Workflow.from_jobs("f", jobs, edges, 0, 80)
