"""Paper-style textual reports and the one-shot reproduction report.

Two layers live here:

* **formatting helpers** — :func:`format_comparison_table`,
  :func:`format_phase_table`, :func:`format_series`,
  :func:`format_slowest_slot`, :func:`turnaround_ratios`.  The benchmarks
  print the same rows/series the paper's figures report; these keep the
  formatting consistent and dependency-free (no plotting — the artefacts
  are tables, which is also what EXPERIMENTS.md records).
* **the report generator** — :func:`run_report` re-runs the paper's core
  experiments (Fig. 1 exactly; Fig. 4 at a configurable scale; Fig. 5's
  slack ablation; timing samples for Fig. 6/7) and renders one Markdown
  document::

      python -m repro report --out report.md

  The full benchmark suite (``pytest benchmarks/``) remains the
  authoritative regeneration of every figure; the report trades
  exhaustiveness for a single-command, single-file summary.

The documented public surface is ``run_report`` and
``format_comparison_table`` (both re-exported from :mod:`repro.analysis`);
the other formatters are stable helpers.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.experiments import ComparisonResult, run_comparison, run_one
from repro.core.decomposition import decompose_deadline
from repro.core.lexmin import lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.estimation.errors import ErrorModel, apply_workflow_estimation_errors
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.obs import Observability, SLOTracker
from repro.schedulers.registry import make_scheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import adhoc_turnaround_seconds
from repro.workloads.arrivals import adhoc_stream
from repro.workloads.dag_generators import chain_workflow, random_dag_edges
from repro.workloads.traces import SyntheticTrace, generate_trace

__all__ = [
    "PHASE_ORDER",
    "format_comparison_table",
    "format_phase_table",
    "format_series",
    "format_slo",
    "format_slowest_slot",
    "run_report",
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


def format_series(
    title: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    x_label: str = "x",
    fmt: str = "{:.3f}",
) -> str:
    """A figure as a table: one x column, one column per series."""
    names = list(series)
    widths = [max(len(x_label), 10)] + [max(len(n), 12) for n in names]
    lines = [title]
    header = f"{x_label:>{widths[0]}}" + "".join(
        f"{name:>{width}}" for name, width in zip(names, widths[1:])
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(xs):
        row = f"{x:>{widths[0]}.6g}"
        for name, width in zip(names, widths[1:]):
            row += f"{fmt.format(series[name][i]):>{width}}"
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


# -- the one-shot reproduction report -----------------------------------------


def _fig1_section() -> list[str]:
    cluster = ClusterCapacity.uniform(cpu=4, mem=8)
    w_spec = TaskSpec(count=2, duration_slots=50, demand=ResourceVector({CPU: 2, MEM: 2}))
    jobs = [Job(job_id=f"W1-J{i}", tasks=w_spec, workflow_id="W1") for i in (1, 2)]
    workflow = Workflow.from_jobs("W1", jobs, [("W1-J1", "W1-J2")], 0, 200)
    a_spec = TaskSpec(count=2, duration_slots=100, demand=ResourceVector({CPU: 1, MEM: 1}))
    adhoc = [
        Job(job_id="A1", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=0),
        Job(job_id="A2", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=100),
    ]
    rows = []
    for label, opts, paper in (
        ("EDF", {}, 150),
        ("FlowTime", {"planner": {"slack_slots": 0}}, 100),
    ):
        result = Simulation(
            cluster, make_scheduler(label, **opts),
            workflows=[workflow], adhoc_jobs=adhoc,
            config=SimulationConfig(slot_seconds=1.0),
        ).run()
        rows.append((label, adhoc_turnaround_seconds(result), paper))
    lines = [
        "## Fig. 1 — motivating example",
        "",
        "| scheduler | avg ad-hoc turnaround | paper |",
        "|---|---|---|",
    ]
    for label, measured, paper in rows:
        lines.append(f"| {label} | {measured:.0f} | {paper} |")
    lines.append("")
    return lines


def _fig4_section(scale: str, seed: int) -> list[str]:
    if scale == "full":
        cluster = ClusterCapacity.uniform(cpu=96, mem=192)
        trace = generate_trace(
            n_workflows=5, jobs_per_workflow=18, n_adhoc=40, capacity=cluster,
            looseness=(4.0, 8.0), adhoc_rate_per_slot=0.7,
            workflow_spread_slots=70, seed=seed,
        )
    else:
        cluster = ClusterCapacity.uniform(cpu=64, mem=128)
        trace = generate_trace(
            n_workflows=4, jobs_per_workflow=12, n_adhoc=30, capacity=cluster,
            looseness=(4.0, 8.0), adhoc_rate_per_slot=0.7,
            workflow_spread_slots=50, seed=seed,
        )
    comparison = run_comparison(
        trace, cluster, ("FlowTime", "CORA", "EDF", "Fair", "FIFO")
    )
    ratios = turnaround_ratios(comparison)
    lines = [
        f"## Fig. 4 — mixed cluster ({trace.n_deadline_jobs} deadline jobs, "
        f"{len(trace.adhoc_jobs)} ad-hoc)",
        "",
        "| algorithm | jobs missed | workflows missed | ad-hoc turnaround (s) | vs FlowTime |",
        "|---|---|---|---|---|",
    ]
    for outcome in comparison.outcomes:
        lines.append(
            f"| {outcome.name} | {outcome.n_missed_jobs} | "
            f"{outcome.n_missed_workflows} | {outcome.adhoc_turnaround_s:.1f} | "
            f"{ratios[outcome.name]:.2f}x |"
        )
    lines.append("")
    lines.append(
        "Paper: FlowTime 0 missed; Fair 1.36x, CORA 2x, FIFO 3x, EDF 10x "
        "its ad-hoc turnaround."
    )
    lines.append("")
    return lines


def _fig5_section() -> list[str]:
    from repro.core.critical_path import critical_path_length

    cluster = ClusterCapacity.uniform(cpu=128, mem=256)
    spec = TaskSpec(count=16, duration_slots=10, demand=ResourceVector({CPU: 2, MEM: 4}))
    workflows = []
    for i in range(4):
        start = i * 20
        skeleton = chain_workflow(f"wf{i}", 4, start, start + 10_000, spec_of=spec)
        cp = critical_path_length(skeleton, cluster, cluster_aware=True)
        workflow = chain_workflow(f"wf{i}", 4, start, start + int(cp * 1.8), spec_of=spec)
        workflows.append(
            apply_workflow_estimation_errors(workflow, ErrorModel(1.0, 1.15), seed=i)
        )
    adhoc = adhoc_stream(
        25, rate_per_slot=0.3,
        horizon_slots=max(w.deadline_slot for w in workflows), seed=99,
    )
    trace = SyntheticTrace(workflows=tuple(workflows), adhoc_jobs=tuple(adhoc))
    faithful = {"planner": {"front_load": False}, "work_conserving": False}
    comparison = run_comparison(
        trace, cluster, ("FlowTime", "FlowTime_no_ds"),
        scheduler_kwargs={"FlowTime": dict(faithful), "FlowTime_no_ds": dict(faithful)},
    )
    lines = [
        "## Fig. 5 — deadline slack (under-estimation noise up to 1.15x)",
        "",
        "| variant | jobs missed | ad-hoc turnaround (s) |",
        "|---|---|---|",
    ]
    for outcome in comparison.outcomes:
        lines.append(
            f"| {outcome.name} | {outcome.n_missed_jobs} | "
            f"{outcome.adhoc_turnaround_s:.1f} |"
        )
    lines.append("")
    lines.append("Paper: 0 vs 5 misses; turnaround 522.5 vs 531.1 s.")
    lines.append("")
    return lines


def _timing_section() -> list[str]:
    # Fig. 6 sample: decomposition at the top of the paper's sweep.
    rng = np.random.default_rng(200)
    spec = TaskSpec(count=8, duration_slots=3, demand=ResourceVector({CPU: 2, MEM: 4}))
    jobs = [Job(job_id=f"w-j{i}", tasks=spec, workflow_id="w") for i in range(200)]
    edges = [(f"w-j{a}", f"w-j{b}") for a, b in random_dag_edges(200, 6000, rng)]
    workflow = Workflow.from_jobs("w", jobs, edges, 0, 4000)
    cluster = ClusterCapacity.uniform(cpu=500, mem=1024)
    start = time.perf_counter()
    decompose_deadline(workflow, cluster)
    decomposition_ms = (time.perf_counter() - start) * 1000

    # Fig. 7 sample: 100 jobs, 100 slots, 500 cores / 1 TB.
    rng = np.random.default_rng(7)
    entries = []
    for i in range(100):
        release = int(rng.integers(0, 50))
        deadline = int(rng.integers(release + 10, 101))
        parallel = int(rng.integers(4, 16))
        units = min(int(rng.integers(10, 200)), (deadline - release) * parallel)
        entries.append(
            ScheduleEntry(
                job_id=f"j{i}", release=release, deadline=deadline, units=units,
                unit_demand=ResourceVector({CPU: int(rng.integers(1, 3)), MEM: 4}),
                max_parallel=parallel,
            )
        )
    caps = np.zeros((100, 2))
    caps[:, 0], caps[:, 1] = 500, 1024
    problem = build_schedule_problem(entries, caps, (CPU, MEM))
    start = time.perf_counter()
    result = lexmin_schedule(problem, max_rounds=1)
    lp_ms = (time.perf_counter() - start) * 1000
    status = "optimal" if result.is_optimal else result.status

    return [
        "## Fig. 6 / Fig. 7 — algorithm latency samples",
        "",
        f"* deadline decomposition, 200 nodes / ~6000 edges: "
        f"**{decomposition_ms:.1f} ms** (paper ceiling: 3000 ms)",
        f"* scheduling LP, 100 jobs x 100 slots on 500 cores / 1 TB: "
        f"**{lp_ms:.0f} ms** ({status}) — far below one 10 s slot",
        "",
    ]


def _phase_latency_section(seed: int) -> list[str]:
    """Per-phase wall-clock profile of one instrumented FlowTime run.

    This is the live-run counterpart of the Fig. 6/7 microbenchmarks: the
    same latencies (decomposition, LP build/solve, per-slot decision)
    measured where they actually occur, plus the engine's slowest-slot
    breakdown — the first place to look when a run misses deadlines.
    """
    cluster = ClusterCapacity.uniform(cpu=64, mem=128)
    trace = generate_trace(
        n_workflows=3, jobs_per_workflow=10, n_adhoc=20, capacity=cluster,
        looseness=(4.0, 8.0), adhoc_rate_per_slot=0.7,
        workflow_spread_slots=40, seed=seed,
    )
    obs = Observability()
    outcome = run_one("FlowTime", trace, cluster, obs=obs)
    lines = [
        "## Per-phase latency profile (instrumented FlowTime run)",
        "",
        "```",
        format_phase_table(outcome.result.metrics),
    ]
    slowest = format_slowest_slot(outcome.result.metrics)
    if slowest:
        lines.append(slowest)
    # The engine feeds slo.* metrics during the run; read them back the
    # same way the service's /slo endpoint does.
    lines += ["", format_slo(SLOTracker(obs.registry).snapshot()), "```", ""]
    return lines


def run_report(*, scale: str = "quick", seed: int = 15) -> str:
    """Render the Markdown reproduction report.

    Args:
        scale: "quick" (default) or "full" (paper-size Fig. 4 workload).
        seed: workload seed for the Fig. 4 section.
    """
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    lines = [
        "# FlowTime reproduction report",
        "",
        f"Scale: {scale}; workload seed: {seed}.  Shapes, not absolute",
        "numbers, are the claims under test (see EXPERIMENTS.md).",
        "",
    ]
    lines += _fig1_section()
    lines += _fig4_section(scale, seed)
    lines += _fig5_section()
    lines += _timing_section()
    lines += _phase_latency_section(seed)
    return "\n".join(lines)

