"""The paper's evaluation claims, each written once.

Every figure of the paper's evaluation (Sec. VII) and every extension
experiment is one :class:`Claim` in :data:`CLAIMS`:

* ``run()`` builds the scenario once, runs it and returns its table as
  rows of plain data: a list of flat dicts with the same keys in every row;
* ``check(rows)`` asserts the paper's *shape* over those rows (who wins, by
  roughly what factor, where behaviour changes) and raises AssertionError
  when it does not hold;
* ``timings`` names the row fields that are wall-clock measurements
  (``time.perf_counter`` over a fixed number of runs).  A timing is held to
  its claim's budget, never to a recorded value.

``scripts/paper_claims.py`` runs every claim, records the rows and a
verdict per claim in PAPER_CLAIMS.json and renders EXPERIMENTS.md's
measured blocks from that record (``--check`` re-runs and diffs instead of
writing); ``benchmarks/test_claims.py`` runs each claim as one pytest case.
Absolute numbers are not expected to match the paper's (an 80-node YARN
cluster and CPLEX, against a slot-based simulator and HiGHS): the checks
are the claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.experiments import (
    ComparisonResult,
    canonical_windows,
    run_comparison,
    run_one,
)
from repro.analysis.reporting import turnaround_ratios
from repro.analysis.stats import replicate
from repro.analysis.sweeps import sweep
from repro.core.allocation import greedy_fill, quantize_coupled
from repro.core.critical_path import critical_path_length, critical_path_windows
from repro.core.decomposition import _set_min_runtime, decompose_deadline
from repro.core.lexmin import LadderLayout, lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.core.placement import PlannerConfig
from repro.core.toposort import grouped_topological_sets
from repro.estimation.errors import ErrorModel, apply_workflow_estimation_errors
from repro.estimation.history import RunHistory
from repro.lp import scipy_backend
from repro.lp.problem import LinearProgram
from repro.lp.solver import solve_lp
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.schedulers.morpheus import MorpheusScheduler
from repro.schedulers.registry import make_scheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.failures import FailureModel
from repro.simulator.metrics import (
    adhoc_turnaround_seconds,
    missed_jobs,
    missed_workflows,
)
from repro.simulator.nodes import NodeCluster
from repro.workloads.arrivals import adhoc_stream
from repro.workloads.dag_generators import (
    chain_workflow,
    fork_join_workflow,
    random_dag_edges,
)
from repro.workloads.recurring import RecurringWorkflow, record_run
from repro.workloads.traces import SyntheticTrace, generate_trace
from tests import simplex
from tests.unimodular import max_fractionality

Rows = list[dict]

RES = (CPU, MEM)
BASELINES = ("CORA", "EDF", "Fair", "FIFO")


@dataclass(frozen=True)
class Claim:
    """One paper claim: its scenario's rows and the shape they must have."""

    name: str
    run: Callable[[], Rows]
    check: Callable[[Rows], None]
    timings: tuple[str, ...] = ()


def _by(rows: Rows, key: str) -> dict:
    """The rows keyed by the value of one column."""
    return {row[key]: row for row in rows}


def _approx(value: float, expected: float, rel: float = 1e-6) -> bool:
    """``value == pytest.approx(expected, rel=rel)``."""
    return abs(value - expected) <= max(rel * abs(expected), 1e-12)


def _mean_seconds(fn: Callable, runs: int) -> tuple:
    """(fn's last result, its mean wall-clock seconds over *runs* calls)."""
    start = time.perf_counter()
    for _ in range(runs):
        result = fn()
    return result, (time.perf_counter() - start) / runs


def _comparison_rows(comparison: ComparisonResult) -> Rows:
    """One row per algorithm: the Fig. 4 triple (Δ = completion - deadline
    of the deadline jobs, misses, ad-hoc turnaround) and the turnaround as a
    multiple of FlowTime's."""
    ratios = turnaround_ratios(comparison)
    rows = []
    for outcome in comparison.outcomes:
        deltas = list(outcome.deltas_seconds.values())
        rows.append({
            "algorithm": outcome.name,
            "finished": outcome.result.finished,
            "jobs_missed": outcome.n_missed_jobs,
            "workflows_missed": outcome.n_missed_workflows,
            "max_delta_s": max(deltas),
            "mean_delta_s": float(np.mean(deltas)),
            "adhoc_turnaround_s": outcome.adhoc_turnaround_s,
            "vs_flowtime": ratios[outcome.name],
        })
    return rows


def mixed_cluster(seed: int = 15) -> tuple[SyntheticTrace, ClusterCapacity]:
    """The Fig. 4 setup: recurring workflows with loose deadlines sharing
    the cluster with a Poisson ad-hoc stream (Sec. VII-A), 4 workflows x 12
    jobs = 48 deadline jobs and 30 ad-hoc jobs on 64 cores / 128 GB.

    Deadline windows are 4-8x the critical path (loose, like the 24 h
    deadline on a ~2 h workflow the paper cites), with enough overlap that
    deadline-oblivious baselines miss job windows, and a steady ad-hoc
    stream that EDF-style deadline-first scheduling visibly starves.
    """
    cluster = ClusterCapacity.uniform(cpu=64, mem=128)
    trace = generate_trace(
        n_workflows=4,
        jobs_per_workflow=12,
        n_adhoc=30,
        capacity=cluster,
        looseness=(4.0, 8.0),
        adhoc_rate_per_slot=0.7,
        workflow_spread_slots=50,
        seed=seed,
    )
    return trace, cluster


# -- FIG1: the motivating example ----------------------------------------------


def fig1_scenario():
    """Fig. 1 in slot units (1 slot = 1 time unit).

    Cluster: 4 cores / 8 GB.  Workflow W1 = J1 -> J2, each job 2 tasks x 50
    slots x (2 cores, 2 GB), deadline 200.  Ad-hoc jobs A1 (arrives 0) and
    A2 (arrives 100), each 2 tasks x 100 slots x (1 core, 1 GB).
    """
    cluster = ClusterCapacity.uniform(cpu=4, mem=8)
    w_spec = TaskSpec(count=2, duration_slots=50, demand=ResourceVector({CPU: 2, MEM: 2}))
    jobs = [Job(job_id=f"W1-J{i}", tasks=w_spec, workflow_id="W1") for i in (1, 2)]
    workflow = Workflow.from_jobs("W1", jobs, [("W1-J1", "W1-J2")], 0, 200)
    a_spec = TaskSpec(count=2, duration_slots=100, demand=ResourceVector({CPU: 1, MEM: 1}))
    adhoc = [
        Job(job_id="A1", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=0),
        Job(job_id="A2", tasks=a_spec, kind=JobKind.ADHOC, arrival_slot=100),
    ]
    return cluster, workflow, adhoc


def fig1_rows() -> Rows:
    rows = []
    for scheduler, paper in (
        (EdfScheduler(), 150),
        (FlowTimeScheduler(PlannerConfig(slack_slots=0)), 100),
    ):
        cluster, workflow, adhoc = fig1_scenario()
        result = Simulation(
            cluster,
            scheduler,
            workflows=[workflow],
            adhoc_jobs=adhoc,
            config=SimulationConfig(slot_seconds=1.0),
        ).run()
        windows = getattr(scheduler, "windows", None)
        rows.append({
            "scheduler": scheduler.name,
            "finished": result.finished,
            "workflows_missed": len(missed_workflows(result)),
            "A1_turnaround": result.jobs["A1"].turnaround_slots(),
            "A2_turnaround": result.jobs["A2"].turnaround_slots(),
            "avg_turnaround": adhoc_turnaround_seconds(result),
            "paper": paper,
            "J1_deadline": windows["W1-J1"].deadline_slot if windows else None,
            "J2_release": windows["W1-J2"].release_slot if windows else None,
            "J2_deadline": windows["W1-J2"].deadline_slot if windows else None,
        })
    return rows


def fig1_check(rows: Rows) -> None:
    for row in rows:
        assert row["finished"] and row["workflows_missed"] == 0, row
    edf, flowtime = (_by(rows, "scheduler")[name] for name in ("EDF", "FlowTime"))
    # Paper: EDF runs the workflow first, so A1 waits: (200 + 100) / 2 = 150.
    assert (edf["A1_turnaround"], edf["A2_turnaround"]) == (200, 100), edf
    assert _approx(edf["avg_turnaround"], 150.0), edf
    # FlowTime spreads the workflow over its window: (100 + 100) / 2 = 100.
    assert (flowtime["A1_turnaround"], flowtime["A2_turnaround"]) == (100, 100), flowtime
    assert _approx(flowtime["avg_turnaround"], 100.0), flowtime
    # The decomposition splits the 200-slot window exactly in half.
    assert flowtime["J1_deadline"] == 100, flowtime
    assert flowtime["J2_release"] == 100, flowtime
    assert flowtime["J2_deadline"] == 200, flowtime


# -- FIG4: the mixed cluster -----------------------------------------------------


def fig4_rows() -> Rows:
    trace, cluster = mixed_cluster()
    return _comparison_rows(run_comparison(trace, cluster, ("FlowTime", *BASELINES)))


def fig4_check(rows: Rows) -> None:
    by_name = _by(rows, "algorithm")
    for row in rows:
        assert row["finished"], f"{row['algorithm']} did not finish"
    flowtime = by_name["FlowTime"]
    # Panels (a)/(b): FlowTime meets every decomposed job deadline...
    assert flowtime["jobs_missed"] == 0, flowtime
    assert flowtime["max_delta_s"] <= 0.0, flowtime
    # ...and every workflow deadline (Sec. VII-B-1).
    assert flowtime["workflows_missed"] == 0, flowtime
    # EDF is the best baseline on misses.
    for name in ("CORA", "Fair", "FIFO"):
        assert by_name["EDF"]["jobs_missed"] <= by_name[name]["jobs_missed"], name
    # Panel (c): everyone is slower than FlowTime for ad-hoc jobs, EDF worst.
    for name in BASELINES:
        assert by_name[name]["vs_flowtime"] > 1.0, f"{name} should trail FlowTime"
    assert by_name["EDF"]["vs_flowtime"] == max(
        by_name[name]["vs_flowtime"] for name in BASELINES
    )


def fig4_morpheus_rows() -> Rows:
    """The paper's baseline list also names Morpheus (Sec. VII-A); its
    history is synthesised from prior-run replays."""
    trace, cluster = mixed_cluster()
    return _comparison_rows(run_comparison(trace, cluster, ("FlowTime", "Morpheus")))


def fig4_morpheus_check(rows: Rows) -> None:
    by_name = _by(rows, "algorithm")
    assert by_name["Morpheus"]["finished"]
    # Morpheus infers windows without DAG knowledge: never better than
    # FlowTime on misses on this workload.
    assert by_name["FlowTime"]["jobs_missed"] <= by_name["Morpheus"]["jobs_missed"], rows


# -- FIG5: the deadline slack ----------------------------------------------------

#: Paper-faithful planner: no front-loading tie-break, no work-conserving
#: boost, so the configurations Fig. 5 contrasts differ only in the slack.
PAPER_FAITHFUL = {"planner": {"front_load": False}, "work_conserving": False}


def slack_scenario() -> tuple[ClusterCapacity, SyntheticTrace]:
    """Four staggered 4-job chains with windows 1.8x their critical path and
    up to 15% duration under-estimation ("the input data or the code may
    have changed", Sec. III), plus a light ad-hoc stream."""
    cluster = ClusterCapacity.uniform(cpu=128, mem=256)
    spec = TaskSpec(count=16, duration_slots=10, demand=ResourceVector({CPU: 2, MEM: 4}))
    workflows = []
    for i in range(4):
        start = i * 20
        skeleton = chain_workflow(f"wf{i}", 4, start, start + 10_000, spec_of=spec)
        cp = critical_path_length(skeleton, cluster, cluster_aware=True)
        workflow = chain_workflow(f"wf{i}", 4, start, start + int(cp * 1.8), spec_of=spec)
        workflows.append(
            apply_workflow_estimation_errors(
                workflow, ErrorModel(low=1.0, high=1.15), seed=i
            )
        )
    adhoc = adhoc_stream(
        25,
        rate_per_slot=0.3,
        horizon_slots=max(w.deadline_slot for w in workflows),
        seed=99,
    )
    return cluster, SyntheticTrace(workflows=tuple(workflows), adhoc_jobs=tuple(adhoc))


def fig5_rows() -> Rows:
    cluster, trace = slack_scenario()
    return _comparison_rows(
        run_comparison(
            trace,
            cluster,
            ("FlowTime", "FlowTime_no_ds"),
            scheduler_kwargs={
                "FlowTime": dict(PAPER_FAITHFUL),
                "FlowTime_no_ds": dict(PAPER_FAITHFUL),
            },
        )
    )


def fig5_check(rows: Rows) -> None:
    by_name = _by(rows, "algorithm")
    with_ds, without = by_name["FlowTime"], by_name["FlowTime_no_ds"]
    assert with_ds["finished"] and without["finished"]
    # (a)/(b): the slack removes every miss; without it, last-minute
    # allocations plus under-estimation cause several (paper: 0 vs 5).
    assert with_ds["jobs_missed"] == 0, with_ds
    assert without["jobs_missed"] >= 3, without
    assert with_ds["max_delta_s"] <= without["max_delta_s"], rows
    # (c): ad-hoc turnaround is essentially unchanged by the slack
    # (paper: 522.5 s vs 531.1 s).
    assert _approx(
        with_ds["adhoc_turnaround_s"], without["adhoc_turnaround_s"], rel=0.15
    ), rows


# -- FIG6: decomposition runtime -------------------------------------------------

FIG6_CLUSTER = ClusterCapacity.uniform(cpu=500, mem=1024)
FIG6_CASES = ((10, 20), (50, 300), (100, 1500), (150, 3000), (200, 6000))
FIG6_RUNS = 20


def dag_workflow(n_nodes: int, n_edges: int, seed: int) -> Workflow:
    """A layered random DAG of *n_nodes* identical jobs."""
    rng = np.random.default_rng(seed)
    spec = TaskSpec(count=8, duration_slots=3, demand=ResourceVector({CPU: 2, MEM: 4}))
    jobs = [Job(job_id=f"w-j{i}", tasks=spec, workflow_id="w") for i in range(n_nodes)]
    edges = [(f"w-j{a}", f"w-j{b}") for a, b in random_dag_edges(n_nodes, n_edges, rng)]
    return Workflow.from_jobs("w", jobs, edges, 0, n_nodes * 20)


def fig6_rows() -> Rows:
    rows = []
    for n_nodes, n_edges in FIG6_CASES:
        workflow = dag_workflow(n_nodes, n_edges, seed=n_nodes)
        result, seconds = _mean_seconds(
            lambda: decompose_deadline(workflow, FIG6_CLUSTER), FIG6_RUNS
        )
        rows.append({
            "nodes": n_nodes,
            "edges": len(workflow.edges),
            "windows_cover_jobs": set(result.windows) == set(workflow.job_ids),
            "mean_ms": seconds * 1000,
        })
    return rows


def fig6_check(rows: Rows) -> None:
    for row in rows:
        assert row["windows_cover_jobs"], row
        # The paper's ceiling: 3 s at 200 nodes / 6000 edges (2012 laptop).
        assert row["mean_ms"] < 3000.0, row


# -- FIG7: LP scheduler latency ----------------------------------------------------

FIG7_SLOTS = 100
FIG7_RUNS = 3


def fig7_entries(n_jobs: int, seed: int) -> list[ScheduleEntry]:
    """Random jobs whose aggregate demand targets ~60% of a 500-core / 1 TB
    cluster over 100 slots, so every sweep point is feasible (the paper's
    sweep holds the cluster fixed and scales only the job count)."""
    rng = np.random.default_rng(seed)
    per_job_cpu = 0.6 * 500 * FIG7_SLOTS / n_jobs
    entries = []
    for i in range(n_jobs):
        release = int(rng.integers(0, 50))
        deadline = int(rng.integers(release + 10, FIG7_SLOTS + 1))
        parallel = int(rng.integers(4, 16))
        cores = int(rng.integers(1, 4))
        target_units = max(int(per_job_cpu * rng.uniform(0.5, 1.5) / cores), 1)
        entries.append(
            ScheduleEntry(
                job_id=f"j{i}",
                release=release,
                deadline=deadline,
                units=min(target_units, (deadline - release) * parallel),
                unit_demand=ResourceVector({CPU: cores, MEM: int(rng.integers(2, 8))}),
                max_parallel=parallel,
            )
        )
    return entries


def fig7_solve(entries: list[ScheduleEntry], mode: str):
    """Build and solve the minimax round plus balancing, timed as one."""
    caps = np.zeros((FIG7_SLOTS, 2))
    caps[:, 0], caps[:, 1] = 500, 1024
    problem = build_schedule_problem(entries, caps, RES, mode=mode)
    return lexmin_schedule(problem, max_rounds=1)


def fig7_rows() -> Rows:
    rows = []
    # The executable (coupled) formulation over the sweep, plus one point
    # with the paper's per-resource formulation (jobs x slots x resources
    # variables) for reference.
    for mode, n_jobs in (
        ("coupled", 10), ("coupled", 50), ("coupled", 100), ("coupled", 200), ("paper", 50)
    ):
        entries = fig7_entries(n_jobs, seed=n_jobs)
        result, seconds = _mean_seconds(lambda: fig7_solve(entries, mode), FIG7_RUNS)
        rows.append({
            "formulation": mode,
            "jobs": n_jobs,
            "optimal": result.is_optimal,
            "minimax": result.minimax,
            "mean_ms": seconds * 1000,
        })
    return rows


def fig7_check(rows: Rows) -> None:
    for row in rows:
        assert row["optimal"], row
        assert 0.0 < row["minimax"] <= 1.0, row
        # Usable for event-driven re-planning: far below one 10 s slot.
        assert row["mean_ms"] < 10_000.0, row


# -- EXT-1: estimation errors ----------------------------------------------------

EXT1_FACTORS = (0.5, 0.8, 1.0, 1.1, 1.3, 1.5)


def ext1_rows() -> Rows:
    """FlowTime on the Fig. 4 workload with true duration = estimate x factor
    (Sec. III: estimates come from prior runs, both under- and
    over-estimation are possible)."""
    trace, cluster = mixed_cluster()
    rows = []
    for factor in EXT1_FACTORS:
        workflows = tuple(
            apply_workflow_estimation_errors(wf, ErrorModel(low=factor, high=factor), seed=i)
            for i, wf in enumerate(trace.workflows)
        )
        noisy = SyntheticTrace(workflows=workflows, adhoc_jobs=trace.adhoc_jobs)
        outcome = run_one("FlowTime", noisy, cluster)
        rows.append({
            "factor": factor,
            "finished": outcome.result.finished,
            "jobs_missed": outcome.n_missed_jobs,
            "adhoc_turnaround_s": outcome.adhoc_turnaround_s,
        })
    return rows


def ext1_check(rows: Rows) -> None:
    for row in rows:
        assert row["finished"], row
    by_factor = {row["factor"]: row["jobs_missed"] for row in rows}
    # Overestimation and exact estimates never cause misses.
    assert by_factor[0.5] == 0 and by_factor[0.8] == 0 and by_factor[1.0] == 0, rows
    # Moderate underestimation is absorbed by the dynamic re-plan loop.
    assert by_factor[1.1] == 0, rows
    # Beyond that the extra (never planned for) work genuinely exceeds what
    # the windows can hold; misses appear and grow monotonically with the
    # error, but the system keeps running rather than collapsing.
    misses = [row["jobs_missed"] for row in rows]
    assert all(a <= b for a, b in zip(misses, misses[1:])), misses
    # Ad-hoc turnaround stays essentially flat across the whole sweep: the
    # deadline-work skyline absorbs the error, not the ad-hoc jobs.
    turnarounds = [row["adhoc_turnaround_s"] for row in rows]
    assert max(turnarounds) <= 2 * min(turnarounds) + 30.0, turnarounds


# -- EXT-2: resource-demand vs critical-path decomposition -------------------------

EXT2_CLUSTER = ClusterCapacity.uniform(cpu=64, mem=128)
EXT2_SPEC = TaskSpec(count=8, duration_slots=3, demand=ResourceVector({CPU: 2, MEM: 4}))
EXT2_FAN_OUTS = (4, 8, 16, 32)


def windows_met(workflow: Workflow, windows, cluster: ClusterCapacity) -> int:
    """How many windows an EDF water-fill inside the windows can meet."""
    entries = [
        ScheduleEntry(
            job_id=job.job_id,
            release=windows[job.job_id].release_slot,
            deadline=windows[job.job_id].deadline_slot,
            units=job.tasks.total_task_slots,
            unit_demand=job.tasks.demand,
            max_parallel=job.tasks.count,
        )
        for job in workflow.jobs
    ]
    horizon = max(w.deadline_slot for w in windows.values()) + 1
    caps = np.zeros((horizon, 2))
    caps[:, 0], caps[:, 1] = cluster.base[CPU], cluster.base[MEM]
    grants = greedy_fill(entries, caps, RES, extend_past_deadline=False)
    return sum(1 for entry in entries if grants[entry.job_id].sum() >= entry.units)


def level_minimums(workflow: Workflow, cluster: ClusterCapacity) -> list[int]:
    """The cluster-aware minimum runtime of each topological level."""
    return [
        _set_min_runtime(workflow, level, cluster, cluster_aware=True)
        for level in grouped_topological_sets(workflow)
    ]


def ext2_rows() -> Rows:
    """Fork-join DAGs (Fig. 3's argument): the critical-path method gives
    the wide middle level 1/3 of the deadline whatever its fan-out, the
    resource-demand method (n-1)/(n+1).  The window is 2x the sum of the
    level minimums: loose enough that the resource-demand decomposition
    never falls back, tight enough that 1/3 of it is too little."""
    rows = []
    for fan_out in EXT2_FAN_OUTS:
        skeleton = fork_join_workflow("f", fan_out, 0, 1, spec_of=EXT2_SPEC)
        window = 2 * sum(level_minimums(skeleton, EXT2_CLUSTER))
        workflow = fork_join_workflow("f", fan_out, 0, window, spec_of=EXT2_SPEC)
        ours = decompose_deadline(workflow, EXT2_CLUSTER)
        classic = critical_path_windows(workflow, EXT2_CLUSTER, cluster_aware=False)
        rows.append({
            "fan_out": fan_out,
            "jobs": len(workflow),
            "demand_fallback": ours.used_fallback,
            "resource_demand_met": windows_met(workflow, ours.windows, EXT2_CLUSTER),
            "critical_path_met": windows_met(workflow, classic, EXT2_CLUSTER),
        })
    return rows


def ext2_check(rows: Rows) -> None:
    for row in rows:
        assert not row["demand_fallback"], row
        # The resource-demand windows are always jointly feasible.
        assert row["resource_demand_met"] == row["jobs"], row
    # The critical-path windows break down as the fan-out grows...
    assert rows[-1]["critical_path_met"] < rows[-1]["jobs"], rows[-1]
    # ...and the gap widens with the fan-out.
    gaps = [row["jobs"] - row["critical_path_met"] for row in rows]
    assert gaps[-1] >= gaps[0], gaps


# -- EXT-3: Lemma 2 in practice ----------------------------------------------------

EXT3_INSTANCES = 20


def ext3_instance(seed: int):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(6):
        release = int(rng.integers(0, 4))
        length = int(rng.integers(2, 6))
        parallel = int(rng.integers(2, 5))
        units = int(rng.integers(1, length * parallel + 1))
        entries.append(
            ScheduleEntry(
                job_id=f"j{i}",
                release=release,
                deadline=release + length,
                units=units,
                unit_demand=ResourceVector(
                    {CPU: int(rng.integers(1, 3)), MEM: int(rng.integers(1, 4))}
                ),
                max_parallel=parallel,
            )
        )
    caps = np.zeros((max(e.deadline for e in entries), 2))
    caps[:, 0], caps[:, 1] = 40, 80
    return entries, caps


def paper_lp_fractionality(seed: int) -> float | None:
    """Max fractionality of the paper formulation's vertex optimum under
    *integral* caps (min total load: a TU matrix and an integral right-hand
    side); None when infeasible."""
    entries, caps = ext3_instance(seed)
    problem = build_schedule_problem(entries, caps, RES, mode="paper")
    lp = LinearProgram(
        c=np.ones(problem.n_vars),
        a_ub=problem.a_util,
        b_ub=np.array([problem.cap_of_cell(k) for k in range(len(problem.util_cells))]),
        a_eq=problem.a_eq,
        b_eq=problem.b_eq,
        lb=np.zeros(problem.n_vars),
        ub=problem.var_ub,
    )
    solution = solve_lp(lp)
    return max_fractionality(solution.x) if solution.is_optimal else None


def ext3_rows() -> Rows:
    """Lemma 2 says the constraint matrix is totally unimodular, so vertex
    optima are integral; the full lexmin pipeline freezes fractional caps
    (theta* C), so its solutions may be fractional and must be repaired."""
    paper, lexmin, repaired = [], [], 0
    for seed in range(EXT3_INSTANCES):
        fractionality = paper_lp_fractionality(seed)
        if fractionality is not None:
            paper.append(fractionality)
        entries, caps = ext3_instance(seed)
        problem = build_schedule_problem(entries, caps, RES, mode="coupled")
        result = lexmin_schedule(problem, max_rounds=3)
        if result.is_optimal:
            lexmin.append(max_fractionality(result.x))
            grants = quantize_coupled(problem, result.x)
            repaired += all(grants[e.job_id].sum() == e.units for e in problem.entries)
    return [{
        "instances": EXT3_INSTANCES,
        "paper_lp_solved": len(paper),
        "paper_lp_max_fractionality": max(paper, default=None),
        "lexmin_solved": len(lexmin),
        "lexmin_max_fractionality": max(lexmin, default=None),
        "lexmin_repaired": repaired,
    }]


def ext3_check(rows: Rows) -> None:
    (row,) = rows
    # Lemma 2: the paper formulation with an integral right-hand side gives
    # integral vertex optima (up to solver tolerance).
    assert row["paper_lp_solved"] > 0, row
    assert row["paper_lp_max_fractionality"] < 1e-6, row
    # The full pipeline may be fractional, but repair is always exact.
    assert row["lexmin_solved"] > 0, row
    assert row["lexmin_repaired"] == row["lexmin_solved"], row


# -- EXT-4: HiGHS against the reference simplex ------------------------------------

EXT4_INSTANCES = 5
EXT4_RUNS = 20


def minimax_lp(seed: int) -> LinearProgram:
    """Round 1 of the lexmin ladder (``min theta``, every cell active) on a
    small random problem."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(4):
        release = int(rng.integers(0, 3))
        length = int(rng.integers(2, 5))
        parallel = int(rng.integers(2, 4))
        units = int(rng.integers(2, length * parallel + 1))
        entries.append(
            ScheduleEntry(
                job_id=f"j{i}",
                release=release,
                deadline=release + length,
                units=units,
                unit_demand=ResourceVector({CPU: 1, MEM: 2}),
                max_parallel=parallel,
            )
        )
    caps = np.zeros((max(e.deadline for e in entries), 2))
    caps[:, 0], caps[:, 1] = 20, 40
    problem = build_schedule_problem(entries, caps, RES)
    cell_caps = problem.cell_caps()
    return LadderLayout(problem, cell_caps).lp(np.full(cell_caps.size, np.inf))


def ext4_rows() -> Rows:
    """The paper used CPLEX, the reproduction HiGHS; the test suite's dense
    two-phase simplex (``tests/simplex.py``) solves the same LPs directly.
    The claim is agreement; the latencies are recorded, with no budget."""
    rows = []
    for seed in range(EXT4_INSTANCES):
        lp = minimax_lp(seed)
        row = {"instance": seed}
        for solver, solve in (("highs", scipy_backend.solve), ("simplex", simplex.solve)):
            solution, seconds = _mean_seconds(lambda: solve(lp), EXT4_RUNS)
            row[f"{solver}_optimal"] = solution.is_optimal
            row[f"{solver}_minimax"] = solution.objective
            row[f"{solver}_ms"] = seconds * 1000
        rows.append(row)
    return rows


def ext4_check(rows: Rows) -> None:
    for row in rows:
        assert row["highs_optimal"] and row["simplex_optimal"], row
        assert abs(row["highs_minimax"] - row["simplex_minimax"]) <= 1e-6, row


# -- EXT-5: time-varying caps --------------------------------------------------------

EXT5_DIP = range(18, 36)


def ext5_rows() -> Rows:
    """Constraint (4): capacity drops to a quarter (16/64 cores) in slots
    18-35, under two chains whose windows span the dip and a steady ad-hoc
    stream competing for the pre-dip capacity."""
    cluster = ClusterCapacity(
        base=ResourceVector({CPU: 64, MEM: 128}),
        overrides={s: ResourceVector({CPU: 16, MEM: 32}) for s in EXT5_DIP},
    )
    spec = TaskSpec(count=16, duration_slots=10, demand=ResourceVector({CPU: 2, MEM: 4}))
    workflows = tuple(
        chain_workflow(f"wf{i}", 2, i * 4, 52 + i * 4, spec_of=spec) for i in range(2)
    )
    adhoc = tuple(adhoc_stream(20, rate_per_slot=0.8, horizon_slots=52, seed=5))
    comparison = run_comparison(
        SyntheticTrace(workflows=workflows, adhoc_jobs=adhoc),
        cluster,
        ("FlowTime", "EDF", "Fair"),
    )
    rows = _comparison_rows(comparison)
    for row, outcome in zip(rows, comparison.outcomes):
        result = outcome.result
        row["cap_violations"] = int(sum(
            result.usage[slot, r] > cluster.at(slot)[name] + 1e-9
            for slot in range(result.n_slots)
            for r, name in enumerate(result.resources)
        ))
    return rows


def ext5_check(rows: Rows) -> None:
    by_name = _by(rows, "algorithm")
    for row in rows:
        assert row["finished"], row
        # The engine held every slot to the (possibly reduced) cap.
        assert row["cap_violations"] == 0, row
    flowtime = by_name["FlowTime"]
    assert flowtime["jobs_missed"] == 0 and flowtime["workflows_missed"] == 0, flowtime
    # Fair, which cannot anticipate the dip, loses deadline work to fair
    # shares before it and misses.
    assert by_name["Fair"]["jobs_missed"] >= 1, by_name["Fair"]
    # And FlowTime still beats EDF on ad-hoc turnaround by a wide margin.
    assert flowtime["adhoc_turnaround_s"] < by_name["EDF"]["adhoc_turnaround_s"] / 3, rows


# -- EXT-6: runtime failures -----------------------------------------------------------

EXT6_RATES = (0.0, 0.1, 0.3, 0.5)


def ext6_rows() -> Rows:
    """The Fig. 4 workload with crashed containers redoing work: a per-slot
    setback probability, FlowTime with EDF for reference."""
    trace, cluster = mixed_cluster()
    rows = []
    for rate in EXT6_RATES:
        config = SimulationConfig(
            failures=FailureModel(setback_prob=rate, max_setback_units=4, seed=9),
            max_slots=20_000,
        )
        row = {"setback_prob": rate}
        for name in ("FlowTime", "EDF"):
            outcome = run_one(name, trace, cluster, config=config)
            row[f"{name}_finished"] = outcome.result.finished
            row[f"{name}_missed"] = outcome.n_missed_jobs
            row[f"{name}_turnaround_s"] = outcome.adhoc_turnaround_s
        rows.append(row)
    return rows


def ext6_check(rows: Rows) -> None:
    for row in rows:
        assert row["FlowTime_finished"] and row["EDF_finished"], row
    misses = [row["FlowTime_missed"] for row in rows]
    turns = [row["FlowTime_turnaround_s"] for row in rows]
    # Failure-free and low-rate runs miss nothing.
    assert misses[0] == 0 and misses[1] == 0, misses
    # Degradation is graceful: misses stay bounded even at a 50% per-slot
    # setback probability, and turnaround grows sub-linearly.
    assert misses[-1] <= 20, misses
    assert turns[-1] <= turns[0] * 5 + 60.0, turns


# -- EXT-7: recurring instances ----------------------------------------------------------

EXT7_INSTANCES = 4


def ext7_rows() -> Rows:
    """Instances of a recurring fork-join workflow back to back, each with
    an ad-hoc background.  Morpheus's history accumulates from the instances
    it actually executed (cold start on instance 0)."""
    cluster = ClusterCapacity.uniform(cpu=48, mem=96)
    recurring = RecurringWorkflow(
        skeleton=fork_join_workflow("nightly", 4, 0, 140),
        period_slots=160,
        template_name="nightly",
    )
    history = RunHistory()
    rows = []
    for index in range(EXT7_INSTANCES):
        instance = recurring.instance(index)
        adhoc = [
            type(job)(
                job_id=job.job_id,
                tasks=job.tasks,
                kind=job.kind,
                arrival_slot=job.arrival_slot + instance.start_slot,
            )
            for job in adhoc_stream(
                8,
                rate_per_slot=0.2,
                horizon_slots=instance.window_slots,
                seed=100 + index,
                prefix=f"adhoc{index}",
            )
        ]
        flowtime = Simulation(
            cluster, FlowTimeScheduler(), workflows=[instance], adhoc_jobs=adhoc
        ).run()
        morpheus_scheduler = MorpheusScheduler(history=history)
        morpheus = Simulation(
            cluster, morpheus_scheduler, workflows=[instance], adhoc_jobs=adhoc
        ).run()
        windows = morpheus_scheduler.windows
        rows.append({
            "instance": index,
            "window_slots": recurring.skeleton.window_slots,
            "finished": flowtime.finished and morpheus.finished,
            "FlowTime_wf_missed": len(missed_workflows(flowtime)),
            "Morpheus_wf_missed": len(missed_workflows(morpheus)),
            # Morpheus's tightest inferred job deadline, relative to the
            # instance start.
            "Morpheus_earliest_deadline": (
                min(w.deadline_slot for w in windows.values()) - instance.start_slot
            ),
        })
        record_run(history, recurring, index, morpheus)
    return rows


def ext7_check(rows: Rows) -> None:
    for row in rows:
        assert row["finished"], row
        # FlowTime is stable from day one (DAG-based, needs no history), and
        # Morpheus meets the (loose) workflow deadlines throughout...
        assert row["FlowTime_wf_missed"] == 0 and row["Morpheus_wf_missed"] == 0, row
    # ...and once history exists its inferred per-job windows tighten from
    # the cold-start whole-window spread: early jobs' deadlines move well
    # before the workflow deadline.
    whole = rows[0]["window_slots"]
    spans = [row["Morpheus_earliest_deadline"] for row in rows]
    assert spans[0] == whole, spans  # cold start: every job gets the full window
    assert all(span < whole for span in spans[1:]), spans
    assert spans[-1] <= whole // 2, spans


# -- EXT-8: simulator throughput ---------------------------------------------------------

EXT8_RUNS = 5


def ext8_rows() -> Rows:
    """Not a paper figure: the substrate's own overhead, so the latencies
    elsewhere can be read (Fig. 7's LP latency matters because the rest of
    the stack is cheap).  One greedy scheduler over 200 jobs."""
    cluster = ClusterCapacity.uniform(cpu=256, mem=512)
    trace = generate_trace(
        n_workflows=8,
        jobs_per_workflow=15,
        n_adhoc=80,
        capacity=cluster,
        looseness=(4.0, 8.0),
        adhoc_rate_per_slot=1.0,
        workflow_spread_slots=80,
        seed=3,
    )
    result, seconds = _mean_seconds(
        lambda: Simulation(
            cluster, FifoScheduler(), workflows=trace.workflows, adhoc_jobs=trace.adhoc_jobs
        ).run(),
        EXT8_RUNS,
    )
    return [{
        "jobs": len(result.jobs),
        "slots": result.n_slots,
        "finished": result.finished,
        "mean_s": seconds,
        "slots_per_s": result.n_slots / seconds,
    }]


def ext8_check(rows: Rows) -> None:
    (row,) = rows
    assert row["finished"], row
    # The engine itself is never the bottleneck.
    assert row["slots_per_s"] > 50, row


# -- EXT-9: deadline looseness -------------------------------------------------------------

EXT9_LOOSENESS = (2.0, 3.0, 5.0, 8.0)
EXT9_ALGORITHMS = ("FlowTime", "EDF", "FIFO")


def looseness_point(looseness: float) -> tuple[SyntheticTrace, ClusterCapacity]:
    cluster = ClusterCapacity.uniform(cpu=64, mem=128)
    trace = generate_trace(
        n_workflows=4,
        jobs_per_workflow=10,
        n_adhoc=25,
        capacity=cluster,
        looseness=(looseness, looseness + 1.0),
        adhoc_rate_per_slot=0.6,
        workflow_spread_slots=40,
        seed=15,
    )
    return trace, cluster


def ext9_rows() -> Rows:
    """Jobs missed and ad-hoc turnaround against the deadline / critical
    path ratio (the paper's trace: a 24 h deadline on a ~2 h workflow)."""
    result = sweep("looseness", EXT9_LOOSENESS, looseness_point, EXT9_ALGORITHMS)
    misses = result.series("jobs_missed")
    turns = result.series("adhoc_turnaround_s")
    return [
        {
            "looseness": x,
            **{f"{name}_missed": int(misses[name][i]) for name in EXT9_ALGORITHMS},
            **{f"{name}_turnaround_s": turns[name][i] for name in EXT9_ALGORITHMS},
        }
        for i, x in enumerate(EXT9_LOOSENESS)
    ]


def ext9_check(rows: Rows) -> None:
    # The crossover: at looseness 2-3 the joint workload is over-committed
    # (several workflows' windows cannot all be honoured) and greedy EDF
    # triage drops fewer deadlines than the LP pipeline: outside the
    # paper's regime, and reported.  Once the workload is feasible
    # (looseness >= 5 here) FlowTime misses nothing.
    assert rows[-2]["FlowTime_missed"] == 0 and rows[-1]["FlowTime_missed"] == 0, rows
    assert rows[0]["FlowTime_missed"] > 0, rows[0]  # the overload end of the sweep
    # FIFO's misses shrink as deadlines loosen but remain the worst tail:
    # deadline-obliviousness needs far more slack to be forgiven.
    assert rows[0]["FIFO_missed"] >= rows[-1]["FIFO_missed"], rows
    assert rows[-1]["FIFO_missed"] > 0, rows[-1]
    # EDF's ad-hoc turnaround stays several times FlowTime's across the
    # whole sweep: looseness does not cure the Fig. 1 pathology.
    for row in rows:
        assert row["EDF_turnaround_s"] > 3 * row["FlowTime_turnaround_s"], row


# -- EXT-10: node-level placement --------------------------------------------------------

EXT10_NODES = 16


def ext10_rows() -> Rows:
    """FlowTime on 16 x 4-core nodes against the same capacity as one
    aggregate pool (the paper's model, and the default engine's)."""
    nodes = NodeCluster.uniform(EXT10_NODES, cpu=4, mem=8)
    capacity = nodes.as_capacity()
    trace = generate_trace(
        n_workflows=3,
        jobs_per_workflow=10,
        n_adhoc=20,
        capacity=capacity,
        looseness=(4.0, 8.0),
        adhoc_rate_per_slot=0.5,
        workflow_spread_slots=40,
        seed=15,
    )
    windows = canonical_windows(trace, capacity)
    rows = []
    for mode, node_cluster in (("aggregate", None), ("node-level", nodes)):
        result = Simulation(
            capacity,
            make_scheduler("FlowTime"),
            workflows=trace.workflows,
            adhoc_jobs=trace.adhoc_jobs,
            config=SimulationConfig(node_cluster=node_cluster, max_slots=20_000),
        ).run()
        rows.append({
            "mode": mode,
            "finished": result.finished,
            "jobs_missed": len(missed_jobs(result, windows)),
            "adhoc_turnaround_s": adhoc_turnaround_seconds(result),
            "waste_units": result.fragmentation_waste_units,
            "slots": result.n_slots,
        })
    return rows


def ext10_check(rows: Rows) -> None:
    by_mode = _by(rows, "mode")
    aggregate, node_level = by_mode["aggregate"], by_mode["node-level"]
    assert aggregate["finished"] and node_level["finished"], rows
    # The aggregate run wastes nothing by construction.
    assert aggregate["waste_units"] == 0, aggregate
    # Node-level placement is a strict subset of the aggregate grant, so a
    # loose-deadline workload still meets everything...
    assert node_level["jobs_missed"] == aggregate["jobs_missed"] == 0, rows
    # ...and the run takes at least as long end to end.
    assert node_level["slots"] >= aggregate["slots"], rows


# -- EXT-11: cluster-aware minimum runtimes --------------------------------------------

EXT11_CLUSTER = ClusterCapacity.uniform(cpu=32, mem=64)
EXT11_SPEC = TaskSpec(count=8, duration_slots=4, demand=ResourceVector({CPU: 2, MEM: 4}))
EXT11_FAN_OUT = 8  # the middle level wants 8 x 8 x 2 = 128 cores of 32


def ext11_rows() -> Rows:
    """Sec. IV-B computes a node set's minimum runtime from its jobs'; the
    default adds a cluster-aware aggregate bound (a set whose demand
    exceeds the cluster needs several waves).  Windows 1.2x and 0.8x the
    honest total minimum, each decomposed both ways."""
    skeleton = fork_join_workflow("f", EXT11_FAN_OUT, 0, 1, spec_of=EXT11_SPEC)
    total_min = sum(level_minimums(skeleton, EXT11_CLUSTER))
    middle = next(
        level
        for level in grouped_topological_sets(skeleton)
        if len(level) == EXT11_FAN_OUT
    )
    middle_min = _set_min_runtime(skeleton, middle, EXT11_CLUSTER, cluster_aware=True)
    rows = []
    for regime, window in (
        ("feasible", int(total_min * 1.2)), ("infeasible", int(total_min * 0.8))
    ):
        for variant, cluster_aware in (("aware", True), ("plain", False)):
            workflow = fork_join_workflow("f", EXT11_FAN_OUT, 0, window, spec_of=EXT11_SPEC)
            decomposition = decompose_deadline(
                workflow, EXT11_CLUSTER, cluster_aware=cluster_aware
            )
            scheduler = FlowTimeScheduler(cluster_aware_decomposition=cluster_aware)
            result = Simulation(EXT11_CLUSTER, scheduler, workflows=[workflow]).run()
            rows.append({
                "regime": regime,
                "window": window,
                "variant": variant,
                "finished": result.finished,
                "jobs_missed": len(missed_jobs(result, scheduler.windows)),
                "fallback": decomposition.used_fallback,
                "middle_window": decomposition.windows["f-j1"].length_slots,
                "middle_min": middle_min,
            })
    return rows


def ext11_check(rows: Rows) -> None:
    by = {(row["regime"], row["variant"]): row for row in rows}
    for row in rows:
        assert row["finished"], row
    # (1) Feasible regime: the demand-proportional split keeps even the
    # plain variant at (or one slot under) the aggregate minimum, and both
    # meet everything.
    aware, plain = by["feasible", "aware"], by["feasible", "plain"]
    assert aware["middle_window"] >= aware["middle_min"], aware
    assert plain["middle_window"] >= plain["middle_min"] - 1, plain
    assert aware["jobs_missed"] == 0 and plain["jobs_missed"] == 0, rows
    # (2) Infeasible regime: only the aware variant *detects* it and takes
    # the paper's critical-path fallback (footnote 1).
    aware, plain = by["infeasible", "aware"], by["infeasible", "plain"]
    assert aware["fallback"] and not plain["fallback"], rows
    # Either way the window is impossible, so misses occur in both.
    assert aware["jobs_missed"] > 0 and plain["jobs_missed"] > 0, rows


# -- EXT-12: the Fig. 4 shape across seeds ----------------------------------------------

EXT12_SEEDS = (1, 9, 15)
EXT12_ALGORITHMS = ("FlowTime", "EDF", "Fair", "FIFO")


def ext12_rows() -> Rows:
    """The Fig. 4 comparison replicated over workload seeds (same generator,
    same parameters): mean, std and extrema per algorithm."""
    result = replicate(mixed_cluster, EXT12_SEEDS, EXT12_ALGORITHMS)
    rows = []
    for name in EXT12_ALGORITHMS:
        row = {"algorithm": name}
        for metric in ("jobs_missed", "adhoc_turnaround_s"):
            summary = result.summary(name, metric)
            row[f"{metric}_mean"] = summary.mean
            row[f"{metric}_std"] = summary.std
            row[f"{metric}_min"] = summary.minimum
            row[f"{metric}_max"] = summary.maximum
        rows.append(row)
    return rows


def ext12_check(rows: Rows) -> None:
    by_name = _by(rows, "algorithm")
    # FlowTime misses nothing on any seed.
    assert by_name["FlowTime"]["jobs_missed_mean"] == 0.0, by_name["FlowTime"]
    # Every baseline's mean ad-hoc turnaround trails FlowTime's, EDF's most.
    flowtime_turn = by_name["FlowTime"]["adhoc_turnaround_s_mean"]
    for name in ("EDF", "Fair", "FIFO"):
        assert by_name[name]["adhoc_turnaround_s_mean"] > flowtime_turn, by_name[name]
    assert by_name["EDF"]["adhoc_turnaround_s_mean"] == max(
        row["adhoc_turnaround_s_mean"] for row in rows
    ), rows


CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim("FIG1", fig1_rows, fig1_check),
        Claim("FIG4", fig4_rows, fig4_check),
        Claim("FIG4-Morpheus", fig4_morpheus_rows, fig4_morpheus_check),
        Claim("FIG5", fig5_rows, fig5_check),
        Claim("FIG6", fig6_rows, fig6_check, timings=("mean_ms",)),
        Claim("FIG7", fig7_rows, fig7_check, timings=("mean_ms",)),
        Claim("EXT-1", ext1_rows, ext1_check),
        Claim("EXT-2", ext2_rows, ext2_check),
        Claim("EXT-3", ext3_rows, ext3_check),
        Claim("EXT-4", ext4_rows, ext4_check, timings=("highs_ms", "simplex_ms")),
        Claim("EXT-5", ext5_rows, ext5_check),
        Claim("EXT-6", ext6_rows, ext6_check),
        Claim("EXT-7", ext7_rows, ext7_check),
        Claim("EXT-8", ext8_rows, ext8_check, timings=("mean_s", "slots_per_s")),
        Claim("EXT-9", ext9_rows, ext9_check),
        Claim("EXT-10", ext10_rows, ext10_check),
        Claim("EXT-11", ext11_rows, ext11_check),
        Claim("EXT-12", ext12_rows, ext12_check),
    )
}
