"""Tests for the comparison harness and reporting."""

import pytest

from repro.analysis.experiments import canonical_windows, run_comparison, run_one
from repro.analysis.reporting import (
    format_comparison_table,
    turnaround_ratios,
)
from repro.model.cluster import ClusterCapacity
from repro.workloads.traces import generate_trace


@pytest.fixture(scope="module")
def cluster():
    return ClusterCapacity.uniform(cpu=40, mem=80)


@pytest.fixture(scope="module")
def trace(cluster):
    return generate_trace(
        n_workflows=2, jobs_per_workflow=5, n_adhoc=6, capacity=cluster, seed=11
    )


@pytest.fixture(scope="module")
def comparison(trace, cluster):
    return run_comparison(trace, cluster, ["FlowTime", "FIFO"])


class TestCanonicalWindows:
    def test_covers_all_deadline_jobs(self, trace, cluster):
        windows = canonical_windows(trace, cluster)
        expected = {j.job_id for wf in trace.workflows for j in wf.jobs}
        assert set(windows) == expected


class TestRunOne:
    def test_outcome_fields(self, trace, cluster):
        outcome = run_one("EDF", trace, cluster)
        assert outcome.name == "EDF"
        assert outcome.result.finished
        assert outcome.adhoc_turnaround_s > 0
        assert len(outcome.deltas_seconds) == trace.n_deadline_jobs


class TestRunComparison:
    def test_all_algorithms_present(self, comparison):
        assert comparison.names == ("FlowTime", "FIFO")

    def test_outcome_lookup(self, comparison):
        assert comparison.outcome("FIFO").name == "FIFO"
        with pytest.raises(KeyError):
            comparison.outcome("nope")

    def test_shared_ground_truth(self, comparison, trace):
        assert len(comparison.windows) == trace.n_deadline_jobs

    def test_morpheus_history_synthesised(self, trace, cluster):
        result = run_comparison(trace, cluster, ["Morpheus"])
        assert result.outcome("Morpheus").result.finished


class TestReporting:
    def test_comparison_table_contains_all_rows(self, comparison):
        table = format_comparison_table(comparison)
        assert "FlowTime" in table and "FIFO" in table
        assert "jobs missed" in table

    def test_turnaround_ratios_baseline_is_one(self, comparison):
        ratios = turnaround_ratios(comparison, baseline="FlowTime")
        assert ratios["FlowTime"] == pytest.approx(1.0)
        assert ratios["FIFO"] > 0
