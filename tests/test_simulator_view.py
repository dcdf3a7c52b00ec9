"""Tests for scheduler views and their helpers."""

from repro.model.cluster import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.simulator.view import (
    AdhocJobView,
    ClusterView,
    DeadlineJobView,
    fit_units,
    subtract_grant,
)
from tests.conftest import spec


def deadline_view(job_id="d", ready=True, remaining=8):
    return DeadlineJobView(
        job_id=job_id,
        workflow_id="w",
        arrival_slot=0,
        ready=ready,
        est_spec=spec(),
        executed_units=0,
        believed_remaining_units=remaining,
    )


def adhoc_view(job_id="a", arrival=0, pending=3):
    return AdhocJobView(
        job_id=job_id,
        arrival_slot=arrival,
        unit_demand=ResourceVector(cpu=1, mem=2),
        pending_units=pending,
    )


def view(deadline=(), adhoc=(), slot=0):
    return ClusterView(
        slot=slot,
        capacity=ClusterCapacity.uniform(cpu=10, mem=20),
        deadline_jobs=tuple(deadline),
        adhoc_jobs=tuple(adhoc),
        workflows={},
    )


class TestHelpers:
    def test_fit_units_caps_at_wanted(self):
        leftover = ResourceVector(cpu=10, mem=20)
        assert fit_units(leftover, ResourceVector(cpu=2, mem=4), 3) == 3

    def test_fit_units_caps_at_capacity(self):
        leftover = ResourceVector(cpu=5, mem=20)
        assert fit_units(leftover, ResourceVector(cpu=2, mem=4), 10) == 2

    def test_fit_units_zero_wanted(self):
        assert fit_units(ResourceVector(cpu=10), ResourceVector(cpu=1), 0) == 0

    def test_subtract_grant(self):
        leftover = subtract_grant(
            ResourceVector(cpu=10, mem=20), ResourceVector(cpu=2, mem=4), 3
        )
        assert leftover == ResourceVector(cpu=4, mem=8)


class TestClusterView:
    def test_capacity_now_uses_slot(self):
        cluster = ClusterCapacity(
            base=ResourceVector(cpu=10, mem=10),
            overrides={5: ResourceVector(cpu=2, mem=2)},
        )
        v = ClusterView(5, cluster, (), (), {})
        assert v.capacity_now() == ResourceVector(cpu=2, mem=2)

    def test_runnable_requires_ready(self):
        v = view(deadline=[deadline_view("a", ready=False), deadline_view("b")])
        assert [j.job_id for j in v.live_deadline_jobs()] == ["a", "b"]
        assert [j.job_id for j in v.runnable_deadline_jobs()] == ["b"]

    def test_waiting_adhoc_sorted_fifo(self):
        v = view(
            adhoc=[
                adhoc_view("late", arrival=9),
                adhoc_view("early", arrival=1),
                adhoc_view("empty", arrival=0, pending=0),
            ]
        )
        assert [j.job_id for j in v.waiting_adhoc_jobs()] == ["early", "late"]

    def test_deadline_view_derived_properties(self):
        job = deadline_view()
        assert job.unit_demand == spec().demand
        assert job.max_parallel == spec().count
