"""Experiment harness and paper-style reporting."""

from repro.analysis.experiments import (
    AlgorithmOutcome,
    ComparisonResult,
    canonical_windows,
    run_comparison,
    run_one,
)
from repro.analysis.gantt import render_gantt, render_utilization
from repro.analysis.reporting import format_comparison_table
from repro.analysis.stats import MetricSummary, ReplicationResult, replicate

__all__ = [
    "AlgorithmOutcome",
    "ComparisonResult",
    "canonical_windows",
    "MetricSummary",
    "ReplicationResult",
    "format_comparison_table",
    "render_gantt",
    "render_utilization",
    "replicate",
    "run_comparison",
    "run_one",
]
