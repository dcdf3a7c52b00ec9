"""Paper-style textual reports: tables of runs, phases and SLOs.

:func:`format_comparison_table`, :func:`format_phase_table`,
:func:`format_slo`, :func:`format_slowest_slot` and
:func:`turnaround_ratios` keep the CLI's output consistent and
dependency-free (no plotting: the artefacts are tables).  The paper's
figures are the claims of ``benchmarks/claims.py``.

The documented public surface is ``format_comparison_table``
(re-exported from :mod:`repro.analysis`); the other formatters are stable
helpers.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.analysis.experiments import ComparisonResult

__all__ = [
    "PHASE_ORDER",
    "format_comparison_table",
    "format_phase_table",
    "format_slo",
    "format_slowest_slot",
    "turnaround_ratios",
]

#: Presentation order of the instrumented phase histograms (others follow
#: alphabetically); see repro.obs for the span names.
PHASE_ORDER: tuple[str, ...] = (
    "decompose",
    "lp.build",
    "lp.solve",
    "sched.plan",
    "sched.decide",
    "sim.slot",
    "admission.check",
)


def _seconds_cell(seconds: float) -> str:
    """Render a turnaround/seconds value, NaN as ``n/a``."""
    return "n/a" if seconds != seconds else f"{seconds:.1f}"


def format_phase_table(metrics: Mapping[str, Mapping[str, float]]) -> str:
    """Per-phase wall-clock latency table from a metrics snapshot.

    Takes the ``SimulationResult.metrics`` /
    :meth:`repro.obs.MetricsRegistry.snapshot` shape and renders every
    timing histogram (span seconds) as one row of call count and latency
    quantiles in milliseconds.
    """
    names = [
        name
        for name, stats in metrics.items()
        if stats.get("type") == "histogram"
        and stats.get("count")
        # Only wall-clock span histograms belong in a latency table; other
        # histograms (e.g. lp.backend.*.iterations) carry non-time units.
        and (name in PHASE_ORDER or name.endswith("seconds"))
    ]
    names.sort(key=lambda n: (PHASE_ORDER.index(n) if n in PHASE_ORDER else
                              len(PHASE_ORDER), n))
    header = (
        f"{'phase':<18}{'calls':>8}{'p50 (ms)':>12}{'p95 (ms)':>12}"
        f"{'p99 (ms)':>12}{'max (ms)':>12}{'total (s)':>12}"
    )
    lines = ["per-phase timings (wall-clock):", header, "-" * len(header)]
    for name in names:
        stats = metrics[name]
        lines.append(
            f"{name:<18}{int(stats['count']):>8d}"
            f"{stats['p50'] * 1000:>12.3f}{stats['p95'] * 1000:>12.3f}"
            f"{stats['p99'] * 1000:>12.3f}{stats['max'] * 1000:>12.3f}"
            f"{stats['sum']:>12.3f}"
        )
    if len(lines) == 3:
        lines.append("(no phase timings recorded)")
    return "\n".join(lines)


def format_slo(snapshot: Mapping) -> str:
    """Render an :meth:`repro.obs.SLOTracker.snapshot` as a short block.

    The same deadline error-budget / decide-latency summary the service
    exposes at ``GET /slo``, here for batch runs (the engine feeds the
    ``slo.*`` metrics regardless of which frontend drives it).
    """
    config = snapshot.get("config") or {}
    deadline = snapshot.get("deadline") or {}
    decide = snapshot.get("decide_latency") or {}
    healthy = snapshot.get("healthy")
    state = "no data" if healthy is None else ("OK" if healthy else "VIOLATED")
    lines = [f"SLO status: {state}"]
    total = deadline.get("total")
    if total:
        compliance = deadline.get("compliance")
        budget = deadline.get("budget_remaining")
        lines.append(
            f"  deadlines: {int(total - deadline.get('missed', 0))}/{int(total)}"
            f" met ({compliance:.2%} vs {deadline.get('objective', 0):.2%}"
            f" objective; error budget remaining {budget:.1%})"
        )
    else:
        lines.append("  deadlines: no workflows completed")
    p99 = decide.get("p99_s")
    if p99 is not None:
        lines.append(
            f"  decide latency: p99 {p99 * 1000:.2f} ms"
            f" (objective {config.get('decide_p99_s', 0) * 1000:.0f} ms,"
            f" {decide.get('window_count', 0)} samples in window)"
        )
    else:
        lines.append("  decide latency: no samples in window")
    return "\n".join(lines)


def format_slowest_slot(metrics: Mapping[str, Mapping[str, float]]) -> str | None:
    """One-line slowest-slot breakdown, or None when not recorded."""
    slot = metrics.get("sim.slowest_slot")
    total = metrics.get("sim.slowest_slot_seconds")
    decide = metrics.get("sim.slowest_slot_decide_seconds")
    if not (slot and total and decide):
        return None
    total_ms = total["value"] * 1000
    decide_ms = decide["value"] * 1000
    return (
        f"slowest slot: #{int(slot['value'])} "
        f"({total_ms:.2f} ms total, {decide_ms:.2f} ms scheduler decision, "
        f"{total_ms - decide_ms:.2f} ms engine)"
    )


def format_comparison_table(
    comparison: ComparisonResult, *, planning: bool = False
) -> str:
    """The Fig. 4 triple as one table: delta stats, misses, turnaround.

    With ``planning=True`` a scheduling-latency column is appended (mean
    wall-clock milliseconds the scheduler spent per engine call — the
    quantity Fig. 7 studies for the LP).  A call is one *executed* slot:
    skipped idle-gap slots make no call and do not dilute the mean.
    """
    header = (
        f"{'algorithm':<16}{'jobs missed':>12}{'wf missed':>11}"
        f"{'max Δ (s)':>12}{'mean Δ (s)':>12}{'ad-hoc turnaround (s)':>24}"
    )
    if planning:
        header += f"{'plan (ms/call)':>16}"
    lines = [header, "-" * len(header)]
    for outcome in comparison.outcomes:
        deltas = list(outcome.deltas_seconds.values())
        max_delta = max(deltas) if deltas else 0.0
        mean_delta = float(np.mean(deltas)) if deltas else 0.0
        row = (
            f"{outcome.name:<16}{outcome.n_missed_jobs:>12d}"
            f"{outcome.n_missed_workflows:>11d}"
            f"{max_delta:>12.1f}{mean_delta:>12.1f}"
            f"{_seconds_cell(outcome.adhoc_turnaround_s):>24}"
        )
        if planning:
            result = outcome.result
            per_call = (
                result.planning_seconds / result.planning_calls * 1000.0
                if result.planning_calls
                else 0.0
            )
            row += f"{per_call:>16.2f}"
        lines.append(row)
    return "\n".join(lines)


def turnaround_ratios(comparison: ComparisonResult, baseline: str = "FlowTime") -> dict[str, float]:
    """Each algorithm's ad-hoc turnaround as a multiple of *baseline*'s.

    The paper reports these as "2-10 times shorter average job turnaround
    time" (1/2 of CORA, 1/3 of FIFO, 1/10 of EDF, Fair 1.36x).
    """
    base = comparison.outcome(baseline).adhoc_turnaround_s
    if not base > 0:  # catches non-positive and NaN (no ad-hoc jobs)
        raise ValueError(f"baseline {baseline!r} has no positive turnaround")
    return {
        outcome.name: outcome.adhoc_turnaround_s / base
        for outcome in comparison.outcomes
    }
